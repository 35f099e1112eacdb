"""Span tracing of coordrate from outside the package.

``Tracer.install`` replaces each public function of every ``coordrate``
module with a recording wrapper, in every module namespace where callers
look the function up (``run_trials`` is bound in both ``simulate`` and
``cli``, ``mutual_information`` in five modules).  Methods are wrapped on
their class, so every construction of ``ChannelStats`` or ``Codebooks`` is
seen however the class was looked up.  A few private helpers are wrapped
only when present; a missing one is reported as absent.

Spans (name, start, end, parent, unit id) are kept in flat arrays in
memory and written out once, after the run.  Hooks add counts measured at
the same boundaries (rows, elements, cache hits, optimizer iterations).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

#: modules whose public functions are traced, with the label used in span names
MODULES = {
    "pmf": "pmf",
    "measures": "measures",
    "_simplexopt": "simplexopt",
    "wyner": "wyner",
    "ulsr": "ulsr",
    "dsbs": "dsbs",
    "region": "region",
    "simulate": "simulate",
    "cli": "cli",
}
#: private helpers traced when present (later changes may delete them)
PRIVATE = {
    "simulate": ("_sample", "_typical_mask"),
    "ulsr": ("_structured_starts",),
}
#: methods traced on their class, mapped to span names
METHODS = {
    ("simulate", "Codebooks"): {
        "__init__": "simulate.Codebooks.init",
        "_rng": "simulate.codebook_rng",
        "u_block": "simulate.u_block",
        "x_block": "simulate.x_block",
        "y_block": "simulate.y_block",
        "u_codeword": "simulate.u_codeword",
        "x_codeword": "simulate.x_codeword",
        "y_codeword": "simulate.y_codeword",
    },
    ("_simplexopt", "ChannelStats"): {
        "__init__": "simplexopt.ChannelStats",
        "grad_joint": "simplexopt.grad_joint",
        "grad_cond": "simplexopt.grad_cond",
    },
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


class Tracer:
    """In-memory span recorder plus the counters its hooks fill."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.unit_id = -1
        self.counts = defaultdict(int)
        self.absent = []
        self._restore = []
        #: whether the u_block call in flight hit the cache (before -> after hook)
        self._u_hit = False

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def inside(self, name):
        """Is a span of this name open on the stack?"""
        nid = self._ids.get(name)
        return nid is not None and any(self.name_id[i] == nid for i in self.stack)

    def wrap(self, name, fn, before=None, after=None):
        nid = self._id(name)
        clock = time.perf_counter
        stack, starts, ends = self.stack, self.start, self.end
        name_ids, parents, units = self.name_id, self.parent, self.unit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            units.append(self.unit_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        self.absent = []
        package = importlib.import_module("coordrate")
        modules = {m: importlib.import_module(f"coordrate.{m}") for m in MODULES}
        span_of = {}
        for m, label in MODULES.items():
            mod = modules[m]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    span_of[obj] = f"{label}.{attr}"
            for attr in PRIVATE.get(m, ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj):
                    span_of[obj] = f"{label}.{attr}"
                else:
                    self.absent.append(f"{label}.{attr}")
        wrapped = {}
        for fn, name in span_of.items():
            hooks = HOOKS.get(name, {})
            wrapped[fn] = self.wrap(name, fn, hooks.get("before"), hooks.get("after"))
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        for (m, cls_name), methods in METHODS.items():
            cls = getattr(modules[m], cls_name, None)
            for meth, name in methods.items():
                fn = vars(cls).get(meth) if inspect.isclass(cls) else None
                if not inspect.isfunction(fn):
                    self.absent.append(name)
                    continue
                hooks = HOOKS.get(name, {})
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self.wrap(name, fn, hooks.get("before"), hooks.get("after")))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def aggregate(self):
        """Per span name: calls, inclusive seconds, self seconds."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        incl = np.bincount(name_id, weights=dur, minlength=k)
        excl = np.bincount(name_id, weights=dur - child, minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(excl[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            unit=np.frombuffer(self.unit, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


# ---------------------------------------------------------------------------
# hooks: counts taken at the traced boundaries


def _channel_stats_after(tr, args, kwargs, result):
    batch = _arg(args, kwargs, 2, "batch")
    tr.counts["simplexopt.ChannelStats.rows"] += int(np.shape(batch)[0])


def _eg_minimize_before(tr, args, kwargs):
    """Count objective evaluations: one per iteration plus the initial one."""
    args = list(args)
    objective = _arg(args, kwargs, 2, "objective_and_grad")

    def counted(stats, *rest, **kw):
        tr.counts["simplexopt.eg_minimize.objective_calls"] += 1
        return objective(stats, *rest, **kw)

    if len(args) > 2:
        args[2] = counted
    else:
        kwargs = {**kwargs, "objective_and_grad": counted}
    return tuple(args), kwargs


def _wyner_after(tr, args, kwargs, result):
    diag = getattr(result, "diagnostics", {}) or {}
    if "feasible_restarts" in diag and "restarts" in diag:
        tr.counts["wyner.feasible_restarts"] += int(diag["feasible_restarts"])
        tr.counts["wyner.restarts"] += int(diag["restarts"])


def _sample_after(tr, args, kwargs, result):
    cum = np.asarray(_arg(args, kwargs, 0, "cum"))
    uniforms = np.asarray(_arg(args, kwargs, 1, "uniforms"))
    elements = uniforms.size
    k = cum.shape[-1]
    tr.counts["simulate._sample.elements"] += elements
    # computed, not measured: read uniforms and cdf, write and read the
    # (elements, k) comparison mask, write the indices
    tr.counts["simulate._sample.bytes_computed"] += (
        uniforms.nbytes + cum.nbytes + 2 * elements * k + np.asarray(result).nbytes
    )


def _u_block_before(tr, args, kwargs):
    books = args[0]
    cache = vars(books).get("_u_cache")
    if cache is None:
        tr._u_hit = False
        if "simulate.Codebooks._u_cache" not in tr.absent:
            tr.absent.append("simulate.Codebooks._u_cache")
    else:
        key = (int(_arg(args, kwargs, 1, "m01")), int(_arg(args, kwargs, 2, "m02")))
        tr._u_hit = key in cache
        tr.counts["simulate.u_block.hits"] += tr._u_hit
    return args, kwargs


def _u_block_after(tr, args, kwargs, result):
    if not tr._u_hit and tr.inside("simulate.processor_output"):
        tr.counts["simulate.processor_output.rows_generated"] += int(np.shape(result)[0])


def _xy_block_after(tr, args, kwargs, result):
    if tr.inside("simulate.processor_output"):
        tr.counts["simulate.processor_output.rows_generated"] += int(np.shape(result)[0])


def _compose_after(tr, args, kwargs, result):
    if tr.inside("simulate.run_trials"):
        tr.counts["pmf.compose.calls_in_run_trials"] += 1


def _typical_mask_after(tr, args, kwargs, result):
    tr.counts["simulate.typicality.rows_tested"] += int(np.shape(_arg(args, kwargs, 0, "ub"))[0])


def _coordinator_after(tr, args, kwargs, result):
    message, failed = result
    nstar = int(_arg(args, kwargs, 2, "books").nstar)
    tr.counts["simulate.coordinator_select.bin_rows"] += nstar
    # rows a first-hit sequential search needs: m*+1, or the whole bin on failure
    tr.counts["simulate.typicality.rows_useful"] += nstar if failed else int(message.m_star) + 1


HOOKS = {
    "pmf.compose": {"after": _compose_after},
    "simplexopt.ChannelStats": {"after": _channel_stats_after},
    "simplexopt.eg_minimize": {"before": _eg_minimize_before},
    "wyner.wyner_ci": {"after": _wyner_after},
    "simulate._sample": {"after": _sample_after},
    "simulate.u_block": {"before": _u_block_before, "after": _u_block_after},
    "simulate.x_block": {"after": _xy_block_after},
    "simulate.y_block": {"after": _xy_block_after},
    "simulate._typical_mask": {"after": _typical_mask_after},
    "simulate.coordinator_select": {"after": _coordinator_after},
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """The per-layer metrics named in BENCHMARK.json, from spans and counts.

    Values for a function a workload never reaches are 0; helpers missing
    from the program are listed in ``tracer.absent`` and also read 0.
    """
    agg = tracer.aggregate()
    c = tracer.counts
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def span(name, stat):
        return agg.get(name, zero)[stat]

    out = {}
    for fn in ("x_block", "y_block", "u_block", "processor_output", "coordinator_select"):
        out[f"simulate.{fn}.calls"] = span(f"simulate.{fn}", "calls")
        out[f"simulate.{fn}.self_s"] = span(f"simulate.{fn}", "self_s")
    emitted = span("simulate.processor_output", "calls")
    out["simulate.processor_output.rows_generated_per_row_emitted"] = _ratio(
        c["simulate.processor_output.rows_generated"], emitted
    )
    if "simulate._typical_mask" in tracer.absent:
        rows_tested = c["simulate.coordinator_select.bin_rows"]
    else:
        rows_tested = c["simulate.typicality.rows_tested"]
    out["simulate.typicality.rows_tested"] = rows_tested
    out["simulate.typicality.useful_ratio"] = _ratio(c["simulate.typicality.rows_useful"], rows_tested)
    out["simulate.run_trials.calls"] = span("simulate.run_trials", "calls")
    out["simulate.run_trials.self_s"] = span("simulate.run_trials", "self_s")
    out["simulate.u_block.hit_ratio"] = _ratio(c["simulate.u_block.hits"], span("simulate.u_block", "calls"))
    for name in ("simulate.derive_components", "simulate.Codebooks.init"):
        out[f"{name}.calls"] = span(name, "calls")
        out[f"{name}.s"] = span(name, "s")
    out["pmf.compose.calls"] = span("pmf.compose", "calls")
    out["pmf.compose.calls_per_run_trials"] = _ratio(
        c["pmf.compose.calls_in_run_trials"], span("simulate.run_trials", "calls")
    )
    out["simulate._sample.calls"] = span("simulate._sample", "calls")
    out["simulate._sample.s"] = span("simulate._sample", "s")
    out["simulate._sample.elements"] = c["simulate._sample.elements"]
    out["simulate._sample.bytes_computed"] = c["simulate._sample.bytes_computed"]
    out["simulate.codebook_rng.calls"] = span("simulate.codebook_rng", "calls")

    for stat in ("calls", "s", "self_s"):
        out[f"simplexopt.eg_minimize.{stat}"] = span("simplexopt.eg_minimize", stat)
    out["simplexopt.eg_minimize.iterations"] = (
        c["simplexopt.eg_minimize.objective_calls"] - span("simplexopt.eg_minimize", "calls")
    )
    out["simplexopt.ChannelStats.calls"] = span("simplexopt.ChannelStats", "calls")
    out["simplexopt.ChannelStats.s"] = span("simplexopt.ChannelStats", "s")
    out["simplexopt.ChannelStats.rows"] = c["simplexopt.ChannelStats.rows"]
    for name in ("simplexopt.grad_joint", "simplexopt.grad_cond"):
        out[f"{name}.calls"] = span(name, "calls")
        out[f"{name}.s"] = span(name, "s")
    for name in ("normalize_rows", "random_channels", "jitter_channels"):
        out[f"simplexopt.{name}.s"] = span(f"simplexopt.{name}", "s")

    for name in ("wyner.wyner_ci", "ulsr.ulsr_rate"):
        for stat in ("calls", "s", "self_s"):
            out[f"{name}.{stat}"] = span(name, stat)
    out["wyner.feasible_ratio"] = _ratio(c["wyner.feasible_restarts"], c["wyner.restarts"])
    out["ulsr._structured_starts.s"] = span("ulsr._structured_starts", "s")

    out["cli.dispatch.calls"] = span("cli.dispatch", "calls")
    out["cli.dispatch.self_s"] = span("cli.dispatch", "self_s")
    for name in (
        "cli.build_parser",
        "pmf.load_joint_pmf",
        "pmf.load_aux_channel",
        "measures.mutual_information",
        "measures.conditional_mutual_information",
        "dsbs.emit_curve",
        "dsbs.f_of_t",
        "dsbs.t_star",
        "region.in_achievable_region",
        "region.achievable_bounds",
    ):
        out[f"{name}.calls"] = span(name, "calls")
        out[f"{name}.s"] = span(name, "s")
    return out


def deterministic_counts(metrics):
    """The per-layer metrics that count work; they must repeat exactly between runs."""
    return {
        k: v
        for k, v in metrics.items()
        if k.endswith((".calls", ".rows", ".iterations", ".elements", ".rows_tested", "_computed"))
        or k.endswith(("_ratio", "_per_row_emitted", "calls_per_run_trials"))
        or "." not in k
    }
