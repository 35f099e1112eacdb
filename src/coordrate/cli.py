"""Command-line frontend: one subcommand per computation.

Exit codes: 0 success, 1 validation error (or numpy's PCG64 state layout
not the one the simulator writes), 2 solver-feasibility failure.
All numeric stdout is printed with 15 significant digits.  Every
stochastic subcommand accepts --seed and is bit-reproducible for a fixed
seed.  With --out, the owning module's file format is written and stdout
carries a one-line summary.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import operator
import sys

from ._seeding import StateLayoutError
from .dsbs import curve_csv_lines, curve_rows, t_star, write_curve_csv
from .measures import source_info, table_entropy
from .pmf import load_aux_channel, load_joint_pmf, tv_distance
from .region import RateTriple, in_achievable_region, xy_equal_region
from .simulate import SimConfig, SimRates, run_trials
from .ulsr import UlsrForm, ulsr_rate
from .wyner import SolverInfeasibleError, SolverOptions, wyner_ci


def _fmt(x):
    return f"{x:.15g}"


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise _CliError(message)


def _solver_options(args):
    """SolverOptions from the fields the command line gave; the rest keep their defaults."""
    given = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(SolverOptions)}
    return SolverOptions(**{name: value for name, value in given.items() if value is not None})


def _parse_rates(text, count, what):
    parts = text.split(",")
    if len(parts) != count:
        raise _CliError(f"{what}: expected {count} comma-separated rates, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise _CliError(f"{what}: {exc}") from exc


@functools.cache
def build_parser():
    """The argparse tree of every subcommand, built on the first call.

    Later calls return the same parser, which every ``dispatch`` in the
    process shares: parsing leaves it unchanged, and callers must not
    mutate it.
    """
    parser = _Parser(prog="coordrate", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="information measures of a distribution file")
    p_info.add_argument("--dist", required=True)
    p_info.add_argument("--measure", required=True, choices=("entropy", "mi", "tv"))
    p_info.add_argument("--dist2", help="second distribution (tv only)")

    p_wyner = sub.add_parser("wyner", help="common information of a source")
    p_ulsr = sub.add_parser("ulsr", help="optimal rate under unlimited shared randomness")
    for p_solver in (p_wyner, p_ulsr):
        p_solver.add_argument("--dist", required=True)
        p_solver.add_argument("--restarts", type=int)
        p_solver.add_argument("--tol", type=float, dest="tol_objective")
        p_solver.add_argument("--seed", type=int)
    p_wyner.add_argument("--card", type=int)
    p_ulsr.add_argument("--form", choices=("maxpair", "maxavg"), default="maxavg")

    p_dsbs = sub.add_parser("dsbs", help="closed-form curve for the symmetric binary source")
    p_dsbs.add_argument("--a", type=float, required=True)
    p_dsbs.add_argument("--points", type=int)
    p_dsbs.add_argument("--out")
    p_dsbs.add_argument("--tstar", action="store_true")

    p_region = sub.add_parser("region", help="rate-region membership")
    region_sub = p_region.add_subparsers(dest="region_command", required=True)
    p_check = region_sub.add_parser("check", help="inner-bound membership for a channel certificate")
    p_check.add_argument("--dist", required=True)
    p_check.add_argument("--aux", required=True)
    p_check.add_argument("--rates", required=True, help="R,R1,R2 in bits/symbol")
    p_xy = region_sub.add_parser("xy-equal", help="exact region for identical outputs")
    p_xy.add_argument("--hx", type=float, required=True)
    p_xy.add_argument("--rates", required=True, help="R,R1,R2 in bits/symbol")

    p_sim = sub.add_parser("simulate", help="Monte Carlo run of the coding scheme")
    p_sim.add_argument("--dist", required=True)
    p_sim.add_argument("--aux", required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--rates", required=True, help="R0,RSTAR,RT1,RT2 in bits/symbol")
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--eps", type=float, default=0.1)
    p_sim.add_argument("--out")
    return parser


def _cmd_info(args, out):
    if bool(args.dist2) != (args.measure == "tv"):
        raise _CliError("info --measure tv needs --dist2, and only tv reads it")
    q = load_joint_pmf(args.dist)
    if args.measure == "entropy":
        out.write(_fmt(table_entropy(q.probs)) + "\n")
    elif args.measure == "mi":
        out.write(_fmt(source_info(q)[2]) + "\n")
    else:
        out.write(_fmt(tv_distance(q, load_joint_pmf(args.dist2))) + "\n")
    return 0


def _cmd_wyner(args, out):
    q = load_joint_pmf(args.dist)
    res = wyner_ci(q, card_u=args.card, opts=_solver_options(args))
    out.write(_fmt(res.value) + "\n")
    return 0


def _cmd_ulsr(args, out):
    q = load_joint_pmf(args.dist)
    res = ulsr_rate(q, UlsrForm(args.form), opts=_solver_options(args))
    out.write(_fmt(res.value) + "\n")
    return 0


def _cmd_dsbs(args, out):
    if args.tstar:
        if args.out or args.points is not None:
            raise _CliError("dsbs --tstar prints t* only; it takes neither --out nor --points")
        out.write(_fmt(t_star(args.a)) + "\n")
        return 0
    rows = curve_rows(args.a, 101 if args.points is None else args.points)
    if args.out:
        write_curve_csv(rows, args.out)
        t, f = min(rows, key=operator.itemgetter(1))[:2]
        out.write(f"wrote {len(rows)} points to {args.out}; grid minimum f={_fmt(f)} at t={_fmt(t)}\n")
    else:
        out.writelines(curve_csv_lines(rows))
    return 0


def _cmd_region(args, out):
    r, r1, r2 = _parse_rates(args.rates, 3, "region --rates")
    rates = RateTriple(r, r1, r2)
    if args.region_command == "check":
        q = load_joint_pmf(args.dist)
        aux = load_aux_channel(args.aux, q)
        member = in_achievable_region(q, aux, rates)
    else:
        member = xy_equal_region(args.hx, rates)
    out.write(("member" if member else "nonmember") + "\n")
    return 0


def _cmd_simulate(args, out):
    q = load_joint_pmf(args.dist)
    aux = load_aux_channel(args.aux, q)
    r0, r_star, rt1, rt2 = _parse_rates(args.rates, 4, "simulate --rates")
    cfg = SimConfig(
        q=q,
        channel=aux,
        n=args.n,
        rates=SimRates(r0=r0, r_star=r_star, rt1=rt1, rt2=rt2),
        eps_typ=args.eps,
        trials=args.trials,
        seed=args.seed,
    )
    report = run_trials(cfg)
    if args.out:
        report.save(args.out)
        out.write(
            f"wrote report to {args.out}; tv_per_letter={_fmt(report.tv_per_letter)} "
            f"mstar_failure_rate={_fmt(report.mstar_failure_rate)}\n"
        )
    else:
        out.write(_fmt(report.tv_per_letter) + "\n")
        out.write(_fmt(report.mstar_failure_rate) + "\n")
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "wyner": _cmd_wyner,
    "ulsr": _cmd_ulsr,
    "dsbs": _cmd_dsbs,
    "region": _cmd_region,
    "simulate": _cmd_simulate,
}


def dispatch(argv, out=None, err=None):
    """Route one invocation; returns the exit code instead of exiting."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except _CliError as exc:
        err.write(f"error: {exc}\n")
        parser.print_usage(err)
        return 1
    except (ValueError, OSError, StateLayoutError) as exc:
        err.write(f"error: {exc}\n")
        return 1
    except SolverInfeasibleError as exc:
        err.write(f"solver failure: {exc}\n")
        return 2


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
