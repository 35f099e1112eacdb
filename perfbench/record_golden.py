"""Record golden.json: the expected outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record_golden.py

Simulator reports are bit-reproducible, so every call seed of the sim_*
pools gets the digest of its report; every CLI command on every input
variant gets its exit code (or the exception it raises) and stdout digest.
Re-record only when a change is meant to alter these outputs, and say so.
"""

import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from coordrate import cli  # noqa: E402


def main():
    golden = {}
    for name in ("sim_above", "sim_below"):
        wl = workloads.make(name, 0, None, golden={})
        golden[name] = {
            str(s): wl.report_digest(wl.call(wl.config(s))) for s in range(wl.POOL)
        }
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as workdir:
        wl = workloads.make("cli_mix", 0, workdir, golden={})
        golden["cli_mix"] = {}
        for v, argvs in wl.argvs.items():
            for key, argv in argvs.items():
                out = io.StringIO()
                try:
                    outcome = cli.dispatch(argv, out=out, err=io.StringIO())
                except Exception as exc:  # recorded: the check expects the same exception
                    outcome = type(exc).__name__
                golden["cli_mix"][f"{v}:{key}"] = [outcome, workloads.digest(outcome, out.getvalue())]
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
