"""Coordrate benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload sim_above --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src``.  Workloads: sim_above, sim_below, solve, cli_mix (see
workloads.py for what each stresses and why).

Each measurement runs in its own single-threaded process (worker.py) with
the BLAS thread pools pinned to 1.  With --trace 0 the end-to-end metrics
are printed; set-up is repeated in SETUP_REPEATS processes and its median
reported.  With --trace 1 the run is repeated under span tracing and the
per-layer metrics are printed, together with the tracing overhead.

The call latencies behind units_per_s, call_s_p50 and call_s_tail are
scaled to a reference machine speed by probes that run inside the calls
(reference.py), as this benchmark's host changes speed several times a
second, and so is the set-up time behind setup_s; the unscaled figures are
in the record.  The traced run and the per-layer metrics are unscaled wall
times.

The second-to-last stdout line is the full record (versions, sizes,
percentiles with their sample counts, checks); the last line is the
result: {"correct", "attempted", "failed", "metrics"}.  Records, traces
and the self-check files go to perfbench/out/.

Every output is checked: simulator reports and CLI stdout against
golden.json (recorded by record_golden.py), solver values against the
information-theoretic brackets and the DSBS acceptance tolerances.  The
self-check compares per-call output digests and work counts with earlier
runs of the same code and seed, and the traced run with the untraced run.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sim_above", "sim_below", "solve", "cli_mix")
SETUP_REPEATS = 5
#: a run must end within this many seconds
RUN_LIMIT_S = 170.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env():
    return {**os.environ, **{k: "1" for k in PINNED}}


def run_worker(args, extra, deadline):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out-dir", OUT, *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("time limit reached before the measured run")
    # run() kills the worker and waits for it when the timeout expires
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def code_digest():
    """Hash of the program and benchmark sources, keys the self-check files."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src", "coordrate"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d not in ("out", "__pycache__"))
            for name in sorted(filenames):
                if name.endswith((".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def self_check(args, code, run, counts):
    """Compare deterministic outputs and counts with earlier runs of this code and seed."""
    path = os.path.join(OUT, "selfcheck", f"{args.workload}-seed{args.seed}-{code}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            prev = json.load(fh)
    except (OSError, ValueError):
        prev = {"digests": [], "counts": {}}
    diffs = []
    digests = run["digests"]
    common = min(len(digests), len(prev["digests"]))
    for i in range(common):
        if digests[i] != prev["digests"][i]:
            diffs.append(f"call {i}: output digest {digests[i]} differs from an earlier run's {prev['digests'][i]}")
            break
    key = str(run["calls"])
    compared_counts = counts is not None and key in prev["counts"]
    if counts is not None:
        for name, value in sorted(counts.items()):
            old = prev["counts"].get(key, {}).get(name)
            if old is not None and old != value:
                diffs.append(f"{name} = {value!r}, an earlier traced run had {old!r}")
        prev["counts"].setdefault(key, counts)
    if len(digests) > len(prev["digests"]):
        prev["digests"] = digests
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(prev, fh)
    os.replace(tmp, path)
    return {"compared_calls": common, "compared_counts": compared_counts, "diffs": diffs}


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "coordrate", "__init__.py")):
        print(f"error: no coordrate sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(OUT, exist_ok=True)

    setups, unscaled_setups = [], []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setup = run_worker(args, ["--setup-only"], deadline)
            setups.append(setup["setup_s"])
            unscaled_setups.append(setup["setup_s_unscaled"])
    res = run_worker(args, [], deadline)
    setups.append(res["setup_s"])
    unscaled_setups.append(res["setup_s_unscaled"])
    run = res["run"]

    code = code_digest()
    check = self_check(args, code, run, res.get("counts"))
    problems = list(run["problems"]) + check["diffs"]
    if args.trace and not res["traced_matches_untraced"]:
        problems.append("traced outputs differ from the untraced pass on the same calls")
    correct = not problems

    if args.trace:
        metrics = {name: metric(value, layer_unit(name)) for name, value in res["layers"].items()}
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "units_per_s": metric(run["units_per_s"], "1/s"),
            "call_s_p50": metric(run["call_s_p50"], "s"),
            "call_s_tail": metric(run["call_s_tail"], "s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "code_digest": code,
        "nproc": os.cpu_count(),
        "versions": res["versions"],
        "sizes": res["sizes"],
        "loop": "closed, one caller",
        "setup_s_samples": setups,
        "setup_s_samples_unscaled": unscaled_setups,
        "calls": run["calls"],
        "truncated": run["truncated"],
        "units": run["units"],
        "busy_s": run["busy_s"],
        "call_s_p50": {"value": run["call_s_p50"], "samples": run["calls"]},
        "call_s_tail": {"value": run["call_s_tail"], "percentile": run["tail_percentile"], "samples": run["calls"]},
        "fail_frac": run["failed"] / run["calls"],
        "latency_scaling": run.get("scaling"),
        "known_defects": run["known_defects"],
        "quality": run["quality"],
        "problems": problems,
        "self_check": {k: v for k, v in check.items() if k != "diffs"},
    }
    if args.trace:
        record.update(
            {
                "tracing_overhead": {
                    "units_per_s_untraced": res["untraced"]["units_per_s"],
                    "units_per_s_traced": run["units_per_s"],
                    "ratio": res["layers"]["trace.overhead_ratio"],
                },
                "absent_helpers": res["absent"],
                "spans_by_name": res["spans_by_name"],
                "trace_file": res["trace_file"],
            }
        )
    path = os.path.join(OUT, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**record, "metrics": metrics}, fh, indent=1)
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": run["calls"], "failed": run["failed"], "metrics": metrics}))
    return 0


def layer_unit(name):
    if name.startswith("trace.units_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes_computed"):
        return "B"
    if name == "rate_bits":
        return "bits"
    if name in ("tv_per_letter", "mstar_failure_rate", "fail_frac") or name.endswith(
        ("_ratio", "_per_row_emitted", "_per_run_trials")
    ):
        return "ratio"
    return "count"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
