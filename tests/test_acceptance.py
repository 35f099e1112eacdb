"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with output visible:  pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np

from conftest import aux_with_copy_sides, processor_isolation
from coordrate.dsbs import dsbs_wyner_channel, f_of_t, interpolated_channel, t_star
from coordrate.measures import (
    binary_entropy,
    conditional_mutual_information,
    inverse_binary_entropy,
    mutual_information,
)
from coordrate.pmf import (
    FullJoint,
    JointPmf,
    Pmf,
    compose,
    degenerate_channel,
    dsbs_joint,
    tv_distance,
)
from coordrate.region import RateTriple, in_achievable_region, xy_equal_region
from coordrate.simulate import SimConfig, SimRates, Codebooks, run_trials
from coordrate.ulsr import UlsrForm, ulsr_rate
from coordrate.wyner import SolverOptions, wyner_ci

C_01 = 0.872760566800152
C_02 = 0.705904900983266
MI_01 = 0.531004406410719
F_NEAR_MIN_01 = 0.300527573378146
I_JOINT_02 = 0.705904900983266


def report(name, ok, detail):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


def test_criterion_1_golden_curve_a01(curve_a01):
    start = time.perf_counter()
    worst = max(abs(f_of_t(0.1, t).f - f_ref) for t, f_ref in curve_a01)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 1.0
    report(
        "criterion 1 (curve a=0.1)",
        ok,
        f"{len(curve_a01)} rows, worst error {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_golden_curve_a02(curve_a02):
    start = time.perf_counter()
    worst = max(abs(f_of_t(0.2, t).f - f_ref) for t, f_ref in curve_a02)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 1.0
    report(
        "criterion 2 (curve a=0.2)",
        ok,
        f"{len(curve_a02)} rows, worst error {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_t_star():
    start = time.perf_counter()
    t1, t2 = t_star(0.1), t_star(0.2)
    points = [f_of_t(a, t_star(a)) for a in (0.1, 0.2)]
    gaps = [abs(p.i_joint - p.i_cond) for p in points]
    elapsed = time.perf_counter() - start
    ok = (
        abs(t1 - 0.343436) <= 1e-4
        and abs(t2 - 0.442523) <= 1e-4
        and max(gaps) <= 1e-9
        and elapsed < 1.0
    )
    report(
        "criterion 3 (t*)",
        ok,
        f"t*(0.1)={t1:.6f}, t*(0.2)={t2:.6f}, max term gap {max(gaps):.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_wyner_solver():
    opts = SolverOptions(restarts=50, seed=0)
    results = []
    for a, target in ((0.1, C_01), (0.2, C_02)):
        start = time.perf_counter()
        res = wyner_ci(dsbs_joint(a), card_u=2, opts=opts)
        elapsed = time.perf_counter() - start
        results.append((a, res, abs(res.value - target), elapsed))
    ok = all(err <= 1e-3 and res.markov_defect <= 1e-6 and el < 30.0 for _, res, err, el in results)
    detail = "; ".join(
        f"a={a}: value={res.value:.9f} err={err:.1e} defect={res.markov_defect:.1e} {el:.1f}s "
        f"iterations={[s['iterations'] for s in res.diagnostics['stages']]}"
        for a, res, err, el in results
    )
    report("criterion 4 (common-information solver)", ok, detail)


def test_criterion_5_ulsr_solver():
    opts = SolverOptions(restarts=50, seed=0)
    q = dsbs_joint(0.1)
    start = time.perf_counter()
    res_avg = ulsr_rate(q, UlsrForm.MAX_AVG, opts)
    res_pair = ulsr_rate(q, UlsrForm.MAX_PAIR, opts)
    elapsed = time.perf_counter() - start
    strict_bar = min(0.5 * C_01, MI_01) - 0.01
    ok = all(
        0.25 <= r.value <= F_NEAR_MIN_01 + 1e-3 and r.value < strict_bar
        for r in (res_avg, res_pair)
    )
    ok = ok and abs(res_pair.value - res_avg.value) <= 1e-12 and elapsed < 120.0
    report(
        "criterion 5 (unlimited-shared-randomness solver)",
        ok,
        f"maxavg={res_avg.value:.9f}, maxpair={res_pair.value:.9f}, "
        f"strict bar {strict_bar:.4f}, {elapsed:.1f}s",
    )


def test_criterion_6_closed_form_cross_validation():
    start = time.perf_counter()
    worst_joint = worst_cond = 0.0
    for a in np.linspace(0.05, 0.45, 10):
        q = dsbs_joint(float(a))
        for t in np.linspace(0.0, 1.0, 10):
            full = compose(q, interpolated_channel(float(a), float(t)))
            ij = mutual_information(full, ("x", "y"), ("u",))
            ic = conditional_mutual_information(full, ("x",), ("y",), ("u",))
            point = f_of_t(float(a), float(t))
            worst_joint = max(worst_joint, abs(ij - point.i_joint))
            worst_cond = max(worst_cond, abs(ic - point.i_cond))
    elapsed = time.perf_counter() - start
    ok = worst_joint <= 1e-10 and worst_cond <= 1e-10 and elapsed < 5.0
    report(
        "criterion 6 (closed form vs generic kernel)",
        ok,
        f"worst joint {worst_joint:.2e}, worst cond {worst_cond:.2e}, {elapsed:.1f}s",
    )


def test_criterion_7_region_membership():
    start = time.perf_counter()
    q02 = dsbs_joint(0.2)
    sides = aux_with_copy_sides(degenerate_channel(2, 2), 2, 2)
    q_ind = JointPmf(np.full((2, 2), 0.25))
    checks = [
        in_achievable_region(q02, sides, RateTriple(0.28, 0.9, 0.9)) is True,
        in_achievable_region(q02, sides, RateTriple(0.27, 0.9, 0.9)) is False,
        in_achievable_region(q_ind, degenerate_channel(2, 2), RateTriple(0, 0, 0)) is True,
        xy_equal_region(1.0, RateTriple(0.5, 0.5, 0.5)) is True,
        xy_equal_region(1.0, RateTriple(0.49, 10, 10)) is False,
        xy_equal_region(0.0, RateTriple(0, 0, 0)) is True,
    ]
    rng = np.random.default_rng(123)
    base = RateTriple(0.28, 1.0, 1.0)
    closure = all(
        in_achievable_region(
            q02, sides, RateTriple(base.r + d[0], base.r1 + d[1], base.r2 + d[2])
        )
        for d in rng.random((1000, 3))
    )
    elapsed = time.perf_counter() - start
    ok = all(checks) and closure and elapsed < 5.0
    report(
        "criterion 7 (region membership)",
        ok,
        f"6 documented checks {'ok' if all(checks) else 'BAD'}, "
        f"closure on 1000 perturbations {'ok' if closure else 'BAD'}, {elapsed:.1f}s",
    )


def test_criterion_8_simulator():
    start = time.perf_counter()
    q = dsbs_joint(0.2)
    ch = dsbs_wyner_channel(0.2)
    above = SimRates(r0=I_JOINT_02, r_star=0.3, rt1=0.5, rt2=0.5)
    below = SimRates(r0=max(I_JOINT_02 - 0.6, 0.0), r_star=0.0, rt1=0.5, rt2=0.5)

    def rep(rates, n, trials, seed):
        return run_trials(
            SimConfig(q=q, channel=ch, n=n, rates=rates, eps_typ=0.1, trials=trials, seed=seed)
        )

    main = rep(above, 32, 2000, 0)
    tv_by_n = {n: rep(above, n, 2000, 40 + n).tv_per_letter for n in (8, 16, 32)}
    monotone = tv_by_n[16] <= tv_by_n[8] + 0.02 and tv_by_n[32] <= tv_by_n[16] + 0.02
    wins = 0
    for seed in range(10):
        wins += rep(above, 32, 2000, seed).tv_per_letter < rep(below, 32, 2000, seed).tv_per_letter
    elapsed = time.perf_counter() - start
    ok = (
        main.tv_per_letter < 0.1
        and main.mstar_failure_rate < 0.2
        and monotone
        and wins >= 7
        and elapsed < 300.0
    )
    report(
        "criterion 8 (simulator)",
        ok,
        f"tv={main.tv_per_letter:.4f}, fail={main.mstar_failure_rate:.3f}, "
        f"tv by n {tv_by_n[8]:.4f}/{tv_by_n[16]:.4f}/{tv_by_n[32]:.4f}, "
        f"directional {wins}/10, {elapsed:.0f}s",
    )


def test_criterion_9_invariant_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(77)

    # information-measure chain rule and nonnegativity on random joints
    chain_ok = nonneg_ok = True
    for _ in range(1000):
        shape = tuple(rng.integers(1, 4, size=5))
        if int(np.prod(shape)) == 1:
            shape = (2, 2, 2, 1, 1)
        t = rng.random(shape) ** 2
        full = FullJoint(t / t.sum())
        lhs = mutual_information(full, ("x", "y"), ("u", "u1"))
        rhs = mutual_information(full, ("x", "y"), ("u",)) + conditional_mutual_information(
            full, ("x", "y"), ("u1",), ("u",)
        )
        chain_ok &= abs(lhs - rhs) <= 1e-10
        nonneg_ok &= lhs >= -1e-12 and conditional_mutual_information(
            full, ("x",), ("y",), ("u",)
        ) >= -1e-12

    # binary entropy inversion on a 1e-3 grid
    inv_ok = all(
        abs(binary_entropy(inverse_binary_entropy(y)) - y) <= 1e-10
        for y in np.arange(0.0, 1.0 + 1e-12, 1e-3)
    )

    # total variation metric properties on random pairs
    tv_ok = True
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        p = rng.random(k)
        p /= p.sum()
        qv = rng.random(k)
        qv /= qv.sum()
        d = tv_distance(Pmf(p), Pmf(qv))
        tv_ok &= 0.0 <= d <= 1.0 and d == tv_distance(Pmf(qv), Pmf(p))
        tv_ok &= tv_distance(Pmf(p), Pmf(p)) <= 1e-12

    # simulator determinism and information isolation
    cfg = SimConfig(
        q=dsbs_joint(0.2),
        channel=dsbs_wyner_channel(0.2),
        n=16,
        rates=SimRates(r0=I_JOINT_02, r_star=0.3, rt1=0.5, rt2=0.5),
        eps_typ=0.1,
        trials=40,
        seed=3,
    )
    r1, r2 = run_trials(cfg), run_trials(cfg)
    det_ok = r1.tv_per_letter == r2.tv_per_letter and np.array_equal(
        r1.empirical_joint.probs, r2.empirical_joint.probs
    )
    # each processor's rows against a change to the other's codeword index
    books = Codebooks(cfg)
    table = rng.integers((books.n01, books.n01, books.nb1, books.nb2), size=(200, 4))
    iso = [processor_isolation(books, table, which) for which in (1, 2)]
    iso_ok = all(matched > 0 and ok for matched, ok in iso)

    elapsed = time.perf_counter() - start
    ok = chain_ok and nonneg_ok and inv_ok and tv_ok and det_ok and iso_ok and elapsed < 30.0
    report(
        "criterion 9 (invariant suites)",
        ok,
        f"chain={chain_ok} nonneg={nonneg_ok} inverse-h={inv_ok} tv={tv_ok} "
        f"determinism={det_ok} isolation={iso_ok}, {elapsed:.1f}s",
    )
