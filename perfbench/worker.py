"""One benchmark process: set up a workload, run its plan, print one JSON line.

Started by run.py with BLAS thread pools pinned to 1 and ``src`` on the
path.  Set-up (imports, input generation, one warm-up call) is timed from
the first line of this file.  With --setup-only the process stops after
set-up.  Reference probes sample the machine's speed during set-up and the
measured run, and scale the set-up time and call latencies by it
(reference.py).  With --trace 1 every call of the plan runs twice, untraced
and traced, so the tracing overhead is measured on identical work; those
latencies are not scaled.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: seconds per plan round: for back-to-back workloads, the round's cost at
#: the commit that defined the benchmark (2-core x86 box, slower of its
#: speed states); for cli_mix, the pace at which rounds start.  A run makes
#: round(seconds / value) rounds, the same work on every commit.
ROUND_S = {"sim_above": 0.31, "sim_below": 0.32, "solve": 3.9, "cli_mix": 1.33}
#: workloads whose rounds start on a fixed pace; between rounds the caller
#: runs reference probes (think time that keeps the core busy, as idling lets
#: it cool down).  Cheap CLI calls back to back would put the tail at p99.9,
#: where a short stall of the machine decides it; 19 paced rounds of 12
#: commands in a 25 s run put it near the median of the slowest command,
#: `dsbs --points 201`.
PACED = {"cli_mix"}
#: reference probes run after set-up, before the measured calls; the first
#: of them set the speed of a set-up too short to hold reference.MIN_PROBES
WARM_PROBES = 20
#: a pass stops early, with at least MIN_CALLS done, past this many seconds;
#: keeps a run under its 180 s limit on a much slower program
PHASE_CAP_S = 70.0
#: calls in the smallest run, enough for 10 beyond the tail percentile
MIN_CALLS = 20
TAIL_BEYOND = 10
#: the traced run alternates untraced and traced passes over this many chunks
TRACE_CHUNKS = 4


def plan_rounds(wl, seconds, share=1.0):
    min_rounds = -(-MIN_CALLS // wl.calls_per_round)
    return max(min_rounds, round(share * seconds / ROUND_S[wl.name]))


def run_plan(wl, plan, tracer=None, cap_s=PHASE_CAP_S, first=0, pace_s=None, sample=False):
    """Issue the calls one after another; returns latencies and verdicts.

    With ``pace_s``, round k of the plan starts no earlier than k * pace_s
    after the first, and the caller runs reference probes until then.  With
    ``sample``, reference probes also run from a timer during the calls
    (reference.py), and the phase carries the sampler that scales them.
    """
    latencies, starts, verdicts = [], [], []
    sampler = reference.Sampler()
    units = 0
    clock = time.perf_counter
    began = clock()
    if sample:
        sampler.start()
    try:
        for i, spec in enumerate(plan):
            if i >= MIN_CALLS and clock() - began > cap_s:
                break
            if pace_s and i % wl.calls_per_round == 0:
                due = began + pace_s * (i // wl.calls_per_round)
                while clock() < due:
                    sampler.record()
            if tracer is not None:
                tracer.unit_id = first + i
            exc = result = None
            t = clock()
            try:
                result = wl.call(spec)
            except Exception as e:  # the benchmark records every failure and keeps going
                exc = e
            latencies.append(clock() - t)
            starts.append(t)
            verdicts.append(wl.check(spec, result, exc))
            if exc is None:
                units += wl.units(spec)
    finally:
        if sample:
            sampler.stop()
    return {
        "latencies": latencies,
        "starts": starts,
        "sampler": sampler if sample else None,
        "verdicts": verdicts,
        "units": units,
        "truncated": len(verdicts) < len(plan),
    }


def pace(name):
    return ROUND_S[name] if name in PACED else None


def merge(phases):
    """One phase from unsampled passes run one after another."""
    return {
        **{k: [x for p in phases for x in p[k]] for k in ("latencies", "starts", "verdicts")},
        "sampler": None,
        "units": sum(p["units"] for p in phases),
        "truncated": any(p["truncated"] for p in phases),
    }


def tail(latencies):
    """Nearest-rank latency at the highest percentile with TAIL_BEYOND samples above it."""
    n = len(latencies)
    if n < 2 * TAIL_BEYOND:
        return None, None
    ordered = sorted(latencies)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def quality(verdicts):
    keys = sorted({k for v in verdicts for k in v.values})
    return {k: statistics.fmean(v.values[k] for v in verdicts if k in v.values) for k in keys}


def latency_stats(units, lat):
    busy = sum(lat)
    t_tail, pct = tail(lat)
    return {
        "busy_s": busy,
        "units_per_s": units / busy if busy > 0 else 0.0,
        "call_s_p50": statistics.median(lat),
        "call_s_tail": t_tail,
        "tail_percentile": pct,
    }


def summarize(wl, phase):
    """Run statistics; with a sampler, the latencies are scaled to the
    reference speed and the unscaled ones kept beside them."""
    verdicts = phase["verdicts"]
    statuses = [v.status for v in verdicts]
    lat = phase["latencies"]
    out = {"calls": len(verdicts), "units": phase["units"]}
    sampler = phase["sampler"]
    if sampler is not None:
        net, lat = sampler.scale(phase["starts"], lat)
        probes = sampler.durations
        out["scaling"] = {
            "probe_s_at_reference_speed": reference.REFERENCE_S,
            "probe_s": {
                "count": len(probes),
                "p50": statistics.median(probes),
                "min": min(probes),
                "max": max(probes),
            },
            "unscaled": latency_stats(phase["units"], net),
        }
    out.update(latency_stats(phase["units"], lat))
    out.update(
        {
            "failed": sum(s != "ok" for s in statuses),
            "known_defects": statuses.count("known_defect"),
            "problems": [v.detail for v in verdicts if v.status in ("mismatch", "error")][:20]
            + wl.finish(verdicts),
            "quality": quality(verdicts),
            "digests": [v.digest for v in verdicts],
            "truncated": phase["truncated"],
        }
    )
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    workdir = tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=args.out_dir)
    try:
        # set-up is scaled like the calls, by the probes from here on
        sampler = reference.Sampler()
        sampler.start()
        try:
            wl = workloads.make(args.workload, args.seed, workdir)
            # the traced run makes two passes over half the work, so it keeps its length
            rounds = plan_rounds(wl, args.seconds, 0.5 if args.trace else 1.0)
            plan = wl.plan(rounds)
            try:  # warm-up: the first call of the plan, checked when the plan runs
                wl.call(plan[0])
            except Exception:
                pass
            setup_end = time.perf_counter()
            for _ in range(WARM_PROBES):
                sampler.record()
        finally:
            sampler.stop()
        (unscaled,), (setup_s,) = sampler.scale([T0], [setup_end - T0])
        out = {"setup_s": setup_s, "setup_s_unscaled": unscaled}
        if not args.setup_only:
            out.update(measure(wl, plan, args))
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            out["versions"] = {"python": platform.python_version(), "numpy": np.__version__}
            out["sizes"] = {
                **wl.sizes(),
                "rounds": rounds,
                "calls_planned": len(plan),
                "unit": wl.unit,
                "round_pace_s": pace(args.workload),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))


def measure(wl, plan, args):
    if not args.trace:
        return {"run": summarize(wl, run_plan(wl, plan, pace_s=pace(args.workload), sample=True))}
    # untraced and traced passes over the same calls, chunk by chunk in
    # alternating order, so drift in machine speed hits both alike
    tracer = tracing.Tracer()
    passes = {False: [], True: []}
    edges = [len(plan) * i // TRACE_CHUNKS for i in range(TRACE_CHUNKS + 1)]
    cap_s = PHASE_CAP_S / (2 * TRACE_CHUNKS)
    for i in range(TRACE_CHUNKS):
        chunk = plan[edges[i]:edges[i + 1]]
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            try:
                passes[traced].append(
                    run_plan(wl, chunk, tracer if traced else None, cap_s, edges[i], pace(args.workload))
                )
            finally:
                tracer.uninstall()
    untraced_phase, traced_phase = (merge(passes[t]) for t in (False, True))
    untraced = summarize(wl, untraced_phase)
    traced = summarize(wl, traced_phase)
    layers = tracing.layer_metrics(tracer)
    q = traced["quality"]
    layers.update(
        {
            "tv_per_letter": q.get("tv_per_letter", 0.0),
            "mstar_failure_rate": q.get("mstar_failure_rate", 0.0),
            "rate_bits": q.get("rate_bits", 0.0),
            "fail_frac": traced["failed"] / traced["calls"],
        }
    )
    counts = tracing.deterministic_counts(layers)
    layers.update(
        {
            "trace.units_per_s_untraced": untraced["units_per_s"],
            "trace.units_per_s_traced": traced["units_per_s"],
            "trace.overhead_ratio": untraced["units_per_s"] / traced["units_per_s"] - 1.0,
            "trace.spans": len(tracer.start),
            "trace.helpers_absent": len(tracer.absent),
        }
    )
    trace_path = os.path.join(args.out_dir, f"trace-{args.workload}-seed{args.seed}.npz")
    tracer.save(trace_path)
    return {
        "run": traced,
        "untraced": untraced,
        "layers": layers,
        "counts": counts,
        "absent": tracer.absent,
        "spans_by_name": tracer.aggregate(),
        "trace_file": os.path.relpath(trace_path, os.path.dirname(HERE)),
        "traced_matches_untraced": traced["digests"] == untraced["digests"],
    }


if __name__ == "__main__":
    main()
