"""The benchmark's workloads: seeded inputs, the public calls they time, checks.

Every workload is a closed loop with one caller: the next call is issued
only after the previous one returned.  A workload turns the workload seed
into a list of calls (the plan); list prefixes are stable, so a shorter
plan is the start of a longer one.  Coordrate is reached only through
module attributes (``simulate.run_trials``, ``cli.dispatch``, ...) so that
the traced run sees the same calls through its wrappers.

Why each workload exists:

* sim_above: criterion-8 "above" rates; block generation and
  inverse-CDF sampling dominate, and the processors regenerate whole
  blocks to emit one row.
* sim_below: criterion-8 "below" rates; 1 x 32 blocks and a 16-bin space
  that always hits the u-block cache, so per-trial overhead dominates and a
  block-generation speed-up must not move it.
* solve: both non-convex solvers; the time is in the exponentiated-gradient
  core.  The 3 x 3 source takes the nested reduced Wyner start, DSBS(0.1)
  the closed-form start.
* cli_mix: the only workload whose time is in pmf, measures, dsbs, region
  and the CLI itself, including invalid inputs that must exit 1.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os

import numpy as np

from coordrate import cli, simulate, ulsr, wyner
from coordrate.pmf import AuxChannel, JointPmf

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

#: I(X,Y;U) of DSBS(0.2) under its Wyner channel, the criterion-8 bin rate
I_JOINT_02 = 0.705904900983266
#: DSBS(0.1) acceptance references: C(X;Y), I(X;Y), curve minimum f(t*)
C_01 = 0.872760566800152
MI_01 = 0.531004406410719
F_MIN_01 = 0.300527573378146
#: slack on the information-theoretic brackets of solver values, in bits
BRACKET_TOL = 1e-6


def digest(*parts):
    """Short content hash of arrays and plain values, used to compare outputs."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def dsbs_probs(a):
    d, o = 0.5 * (1.0 - a), 0.5 * a
    return np.array([[d, o], [o, d]])


def wyner_rows(a):
    """Closed-form Wyner channel of DSBS(a) as an (x, y, u) array."""
    b = 0.5 * (1.0 - math.sqrt(1.0 - 2.0 * a))
    r = b * b / (1.0 - a)
    return np.array([[[1.0 - r, r], [0.5, 0.5]], [[0.5, 0.5], [r, 1.0 - r]]])


def info_terms(p):
    """H(X), H(Y), I(X;Y) in bits of a joint table, computed independently."""

    def h(v):
        v = v[v > 0]
        return float(-(v * np.log2(v)).sum())

    hx, hy = h(p.sum(axis=1)), h(p.sum(axis=0))
    return hx, hy, hx + hy - h(p.ravel())


class Verdict:
    """Outcome of one call: status is ok, known_defect, mismatch or error."""

    __slots__ = ("status", "digest", "values", "detail")

    def __init__(self, status, digest_, values=None, detail=""):
        self.status = status
        self.digest = digest_
        self.values = values or {}
        self.detail = detail


# ---------------------------------------------------------------------------
# simulator


class SimWorkload:
    """Repeated run_trials on DSBS(0.2) at n=32, one pooled call seed per call."""

    unit = "trial"
    #: call seeds are drawn from range(POOL); golden.json records every one
    POOL = 256
    calls_per_round = 1

    def __init__(self, name, rates, trials, seed, golden):
        self.name = name
        self.rates = simulate.SimRates(*rates)
        self.trials = trials
        self.q = JointPmf(dsbs_probs(0.2))
        self.channel = AuxChannel.from_array(wyner_rows(0.2))
        self.order = np.random.default_rng([seed, 8]).permutation(self.POOL)
        self.golden = golden

    def config(self, call_seed):
        return simulate.SimConfig(
            q=self.q, channel=self.channel, n=32, rates=self.rates, eps_typ=0.1,
            trials=self.trials, seed=int(call_seed),
        )

    def plan(self, rounds):
        return [self.config(self.order[i % self.POOL]) for i in range(rounds)]

    def units(self, cfg):
        return cfg.trials

    def call(self, cfg):
        return simulate.run_trials(cfg)

    @staticmethod
    def report_digest(rep):
        return digest(rep.empirical_joint.probs, rep.tv_per_letter, rep.mstar_failure_rate, rep.trials_run)

    def check(self, cfg, rep, exc):
        if exc is not None:
            return Verdict("error", f"raised {type(exc).__name__}", detail=repr(exc))
        d = self.report_digest(rep)
        values = {"tv_per_letter": rep.tv_per_letter, "mstar_failure_rate": rep.mstar_failure_rate}
        if d != self.golden.get(str(cfg.seed)):
            return Verdict("mismatch", d, values, f"call seed {cfg.seed}: report differs from golden.json")
        return Verdict("ok", d, values)

    def finish(self, verdicts):
        """Run-level checks: the criterion-8 bars on the "above" rates."""
        if self.name != "sim_above":
            return []
        tv = np.mean([v.values["tv_per_letter"] for v in verdicts if v.values])
        fail = np.mean([v.values["mstar_failure_rate"] for v in verdicts if v.values])
        if tv < 0.1 and fail < 0.2:
            return []
        return [f"criterion-8 bars missed: mean tv {tv:.4f} (< 0.1), mean m* failure {fail:.3f} (< 0.2)"]

    def sizes(self):
        cfg = self.config(0)
        n01, nstar, nb1, nb2 = cfg.index_sizes()
        return {
            "source": "DSBS(0.2) with its closed-form Wyner channel",
            "n": cfg.n,
            "rates": [self.rates.r0, self.rates.r_star, self.rates.rt1, self.rates.rt2],
            "index_sizes": {"m0_half": n01, "m_star": nstar, "b1": nb1, "b2": nb2},
            "trials_per_call": self.trials,
            "call_seed_pool": self.POOL,
        }


# ---------------------------------------------------------------------------
# solvers

#: fixed 3 x 3 source; each round relabels its alphabets, which keeps the
#: solve cost comparable across seeds while the solver sees a new array
BASE_3X3 = np.array(
    [
        [0.1563, 0.0391, 0.0785],
        [0.0617, 0.1517, 0.0770],
        [0.0394, 0.1441, 0.2522],
    ]
)
SOLVE_RESTARTS = 16
PERMS = list(itertools.permutations(range(3)))


class SolveWorkload:
    """Rounds of five solves: a relabelled 3 x 3 source and DSBS(0.1)."""

    name = "solve"
    unit = "solve"
    calls_per_round = 5

    def __init__(self, seed):
        self.seed = seed
        self.dsbs = JointPmf(dsbs_probs(0.1))
        self.opts = wyner.SolverOptions(restarts=SOLVE_RESTARTS, seed=0)
        #: values returned so far, keyed (round, kind), for the cross-call brackets
        self._values = {}

    def round_specs(self, r):
        rng = np.random.default_rng([self.seed, r, 5])
        px, py = PERMS[rng.integers(6)], PERMS[rng.integers(6)]
        q3 = JointPmf(BASE_3X3[np.ix_(px, py)] / BASE_3X3.sum())
        opts = self.opts
        # each Wyner value precedes the rate it brackets, maxavg precedes maxpair
        return [
            (r, "wyner_dsbs", self.dsbs, opts),
            (r, "ulsr_dsbs_maxavg", self.dsbs, opts),
            (r, "ulsr_dsbs_maxpair", self.dsbs, opts),
            (r, "wyner_3x3", q3, opts),
            (r, "ulsr_3x3", q3, opts),
        ]

    def plan(self, rounds):
        return [spec for r in range(rounds) for spec in self.round_specs(r)]

    def units(self, spec):
        return 1

    def call(self, spec):
        _, kind, q, opts = spec
        if kind == "wyner_3x3":
            return wyner.wyner_ci(q, opts=opts)
        if kind == "wyner_dsbs":
            return wyner.wyner_ci(q, card_u=2, opts=opts)
        if kind == "ulsr_dsbs_maxpair":
            return ulsr.ulsr_rate(q, ulsr.UlsrForm.MAX_PAIR, opts)
        return ulsr.ulsr_rate(q, ulsr.UlsrForm.MAX_AVG, opts)

    def check(self, spec, res, exc):
        r, kind, q, _ = spec
        if exc is not None:
            return Verdict("error", f"raised {type(exc).__name__}", detail=repr(exc))
        hx, hy, ixy = info_terms(q.probs)
        value = res.value
        self._values[(r, kind)] = value
        source = "dsbs" if "dsbs" in kind else "3x3"
        problems = []
        if kind.startswith("wyner"):
            d = digest(value, res.markov_defect)
            if not res.markov_defect <= wyner.MARKOV_TOL:
                problems.append(f"infeasible, I(X;Y|U) = {res.markov_defect:.3e}")
            if not ixy - BRACKET_TOL <= value <= min(hx, hy) + BRACKET_TOL:
                problems.append(f"C = {value!r} outside [I(X;Y), min(H(X),H(Y))] = [{ixy}, {min(hx, hy)}]")
            if source == "dsbs" and abs(value - C_01) > 1e-3:
                problems.append(f"C(0.1) = {value!r}, reference {C_01} +- 1e-3")
        else:
            d = digest(value, res.term_cond, res.term_joint)
            c = self._values.get((r, f"wyner_{source}"), math.inf)
            if not 0.5 * ixy - BRACKET_TOL <= value <= min(0.5 * c, ixy) + BRACKET_TOL:
                problems.append(f"rate {value!r} outside [I(X;Y)/2, min(C/2, I(X;Y))] with C = {c!r}")
            if source == "dsbs" and not (0.25 <= value <= F_MIN_01 + 1e-3 and value < min(0.5 * C_01, MI_01) - 0.01):
                problems.append(f"DSBS(0.1) rate {value!r}, acceptance band [0.25, {F_MIN_01 + 1e-3}]")
            other = self._values.get((r, "ulsr_dsbs_maxavg"))
            if kind == "ulsr_dsbs_maxpair" and other is not None and abs(value - other) > 1e-3:
                problems.append(f"forms disagree: maxpair {value!r} vs maxavg {other!r}")
        values = {"rate_bits": value}
        if problems:
            return Verdict("mismatch", d, values, f"round {r} {kind}: " + "; ".join(problems))
        return Verdict("ok", d, values)

    def finish(self, verdicts):
        return []

    def sizes(self):
        return {
            "sources": "3x3 (fixed base, alphabets relabelled per round) and DSBS(0.1)",
            "calls_per_round": ["wyner_ci(DSBS, card_u=2)", "ulsr_rate(DSBS, maxavg)",
                                "ulsr_rate(DSBS, maxpair)", "wyner_ci(3x3)", "ulsr_rate(3x3, maxavg)"],
            "restarts": SOLVE_RESTARTS,
            "solver_seed": self.opts.seed,
            "card_u": {"wyner_3x3": 9, "ulsr": "nx*ny+2", "wyner_dsbs": 2},
            "max_iters": wyner.SolverOptions().max_iters,
        }


# ---------------------------------------------------------------------------
# command line

#: commands per round; the last five must exit 1
VALID = ("info-entropy", "info-mi", "info-tv", "dsbs-tstar", "dsbs-points", "region-check", "region-xy")
INVALID = ("info-missing", "info-badpmf", "dsbs-range", "region-arity", "simulate-overflow")
#: invalid inputs that raise at this commit instead of exiting 1; each call
#: still counts as failed, but raising the recorded exception is not a mismatch
KNOWN_DEFECTS = {"simulate-overflow"}


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _joint_doc(p):
    return {
        "alphabet_x": [str(i) for i in range(p.shape[0])],
        "alphabet_y": [str(i) for i in range(p.shape[1])],
        "pmf": p.tolist(),
    }


def _aux_doc(rows):
    """load_aux_channel format for a dense (x, y, u, u1, u2) array."""
    nx, ny, cu, c1, c2 = rows.shape
    cond = {f"{x},{y}": rows[x, y].ravel().tolist() for x in range(nx) for y in range(ny)}
    return {"card_u": cu, "card_u1": c1, "card_u2": c2, "cond": cond}


def _rates(values):
    return ",".join(f"{v:.4f}" for v in values)


class CliWorkload:
    """In-process cli.dispatch over a fixed command mix per input variant."""

    name = "cli_mix"
    unit = "command"
    #: input variants; golden.json records every command on every variant
    VARIANTS = 64
    calls_per_round = len(VALID) + len(INVALID)

    def __init__(self, seed, workdir, golden):
        self.workdir = workdir
        self.seed = seed
        self.order = np.random.default_rng([seed, 11]).permutation(self.VARIANTS)
        self.golden = golden
        self.argvs = {v: self.make_variant(v) for v in range(self.VARIANTS)}

    def make_variant(self, v):
        """Write variant v's input files and return its argv per command."""
        rng = np.random.default_rng([v, 13])
        f = lambda name: os.path.join(self.workdir, f"v{v}-{name}.json")  # noqa: E731
        dist_a = rng.dirichlet(np.ones(9)).reshape(3, 3)
        dist_b = rng.dirichlet(np.ones(9)).reshape(3, 3)
        _write_json(f("a"), _joint_doc(dist_a))
        _write_json(f("b"), _joint_doc(dist_b))
        bad = dist_a * 1.2
        _write_json(f("bad"), _joint_doc(bad))
        # copy-sides certificate: u ~ base(u|x,y), u1 = x, u2 = y
        base = rng.dirichlet(np.ones(2), size=(3, 3))
        copy = np.zeros((3, 3, 2, 3, 3))
        for x in range(3):
            for y in range(3):
                copy[x, y, :, x, y] = base[x, y]
        _write_json(f("copy"), _aux_doc(copy))
        a = round(0.05 + 0.4 * rng.random(), 4)
        _write_json(f("dsbs"), _joint_doc(dsbs_probs(a)))
        _write_json(f("wyner"), _aux_doc(wyner_rows(a)[:, :, :, None, None]))
        hx = round(0.2 + 1.5 * rng.random(), 4)
        r3 = _rates(2.0 * rng.random(3))
        r3b = _rates(2.0 * rng.random(3))
        return {
            "info-entropy": ["info", "--dist", f("a"), "--measure", "entropy"],
            "info-mi": ["info", "--dist", f("a"), "--measure", "mi"],
            "info-tv": ["info", "--dist", f("a"), "--measure", "tv", "--dist2", f("b")],
            "dsbs-tstar": ["dsbs", "--a", f"{a}", "--tstar"],
            "dsbs-points": ["dsbs", "--a", f"{a}", "--points", "201"],
            "region-check": ["region", "check", "--dist", f("a"), "--aux", f("copy"), "--rates", r3],
            "region-xy": ["region", "xy-equal", "--hx", f"{hx}", "--rates", r3b],
            "info-missing": ["info", "--dist", f("missing"), "--measure", "entropy"],
            "info-badpmf": ["info", "--dist", f("bad"), "--measure", "mi"],
            "dsbs-range": ["dsbs", "--a", f"{0.5 + a}", "--tstar"],
            "region-arity": ["region", "xy-equal", "--hx", f"{hx}", "--rates", r3b.rsplit(",", 1)[0]],
            "simulate-overflow": [
                "simulate", "--dist", f("dsbs"), "--aux", f("wyner"), "--n", "4000",
                "--rates", "1,0,0,0", "--trials", "1",
            ],
        }

    def round_specs(self, r):
        v = int(self.order[r % self.VARIANTS])
        keys = list(VALID + INVALID)
        np.random.default_rng([self.seed, r, 12]).shuffle(keys)
        return [(v, key) for key in keys]

    def plan(self, rounds):
        return [spec for r in range(rounds) for spec in self.round_specs(r)]

    def units(self, spec):
        return 1

    def call(self, spec):
        v, key = spec
        out, err = io.StringIO(), io.StringIO()
        code = cli.dispatch(self.argvs[v][key], out=out, err=err)
        return code, out.getvalue()

    def check(self, spec, result, exc):
        v, key = spec
        expected = self.golden.get(f"{v}:{key}")
        if exc is not None:
            name = type(exc).__name__
            if key in KNOWN_DEFECTS and expected is not None and expected[0] == name:
                return Verdict("known_defect", f"raised {name}", detail=f"{key}: raised {name}, should exit 1")
            return Verdict("error", f"raised {name}", detail=f"variant {v} {key}: {exc!r}")
        code, stdout = result
        d = digest(code, stdout)
        if key in INVALID:
            ok = code == 1 and stdout == ""
        else:
            ok = expected is not None and [code, d] == expected
        if not ok:
            return Verdict("mismatch", d, detail=f"variant {v} {key}: exit {code}, stdout {stdout[:80]!r}")
        return Verdict("ok", d)

    def finish(self, verdicts):
        return []

    def sizes(self):
        return {
            "commands_per_round": {"valid": list(VALID), "invalid_exit_1": list(INVALID)},
            "input_variants": self.VARIANTS,
            "source_shapes": {"info/region": "3x3", "simulate": "2x2 DSBS"},
            "dsbs_points": 201,
        }


def make(name, seed, workdir, golden=None):
    """Build a workload; ``golden`` defaults to the recorded golden.json."""
    if golden is None and name != "solve":
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            golden = json.load(fh)[name]
    if name == "sim_above":
        return SimWorkload(name, (I_JOINT_02, 0.3, 0.5, 0.5), 40, seed, golden)
    if name == "sim_below":
        return SimWorkload(name, (I_JOINT_02 - 0.6, 0.0, 0.5, 0.5), 1000, seed, golden)
    if name == "solve":
        return SolveWorkload(seed)
    if name == "cli_mix":
        return CliWorkload(seed, workdir, golden)
    raise ValueError(f"unknown workload {name!r}")
