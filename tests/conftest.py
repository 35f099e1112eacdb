import csv
import pathlib

import numpy as np
import pytest

from coordrate._seeding import _srandom, seed_words
from coordrate.pmf import AuxChannel, JointPmf, PmfError
from coordrate.simulate import _search

DATA = pathlib.Path(__file__).parent / "data"

#: the benchmark's fixed 3 x 3 solve source, before normalising
BASE_3X3 = np.array(
    [
        [0.1563, 0.0391, 0.0785],
        [0.0617, 0.1517, 0.0770],
        [0.0394, 0.1441, 0.2522],
    ]
)


def aux_with_copy_sides(base, nx, ny):
    """Extend p(u|x,y) to p(u,u1,u2|x,y) with u1 = x and u2 = y deterministically."""
    if base.card_u1 != 1 or base.card_u2 != 1:
        raise PmfError("aux_with_copy_sides: base channel must have degenerate side auxiliaries")
    rows = np.zeros((nx, ny, base.card_u, nx, ny))
    for x in range(nx):
        for y in range(ny):
            rows[x, y, :, x, y] = base.probs[x, y, :, 0, 0]
    return AuxChannel.from_array(rows)


def near_tolerance_pair():
    """DSBS(0.1) and its Wyner channel, each nudged up to sum to 1 + 9e-10, just inside SUM_TOL.

    The source sums to 1 + 9e-10 and so does every channel row, so their
    product sums to about 1 + 1.8e-9, beyond SUM_TOL; X - U - Y still holds.
    """
    q = JointPmf(np.array([[0.45000000045, 0.05], [0.05, 0.45000000045]]))
    from coordrate.dsbs import dsbs_wyner_channel

    rows = dsbs_wyner_channel(0.1).probs[:, :, :, 0, 0] + 4.5e-10
    return q, AuxChannel(rows)


def near_markov_channel(ratio):
    """DSBS(0.1)'s Wyner channel mixed toward the flat one until I(X;Y|U) is ``ratio`` * MARKOV_TOL.

    The mixing weight t is found by bisection on the closed form
    ``f_of_t(0.1, t).i_cond``, which rises from 0 at t = 0.
    """
    from coordrate.dsbs import f_of_t, interpolated_channel
    from coordrate.measures import MARKOV_TOL

    lo, hi = 0.0, 0.01
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f_of_t(0.1, mid).i_cond < ratio * MARKOV_TOL:
            lo = mid
        else:
            hi = mid
    return interpolated_channel(0.1, lo)


def processor_isolation(books, table, which):
    """Check that processor ``which`` emits from its own view of a trial only.

    Runs ``_search`` on the trial rows (m01, m02, b1, b2) of ``table`` and on
    a copy that differs only in the other processor's b index.  Where m*
    agrees, processor ``which``'s emitted rows must be equal; in both runs,
    each must be row m* of the block keyed by (m01, m02, b_which) alone, its
    stream key written out here rather than read from the simulator.
    Returns (trials whose m* agreed, whether both checks held).
    """
    own, other = (2, 3) if which == 1 else (3, 2)
    seed = books.cfg.seed
    table = np.asarray(table)
    changed = table.copy()
    changed[:, other] = (changed[:, other] + 1) % (books.nb1, books.nb2)[other - 2]
    assert not np.array_equal(changed, table), "the other processor's index set has one entry"
    runs = []
    for t in (table, changed):
        m_star, _, pairs = _search(books, t)
        runs.append((t, m_star, np.divmod(pairs, books.cfg.q.shape[1])[which - 1]))
    (_, m_a, rows_a), (_, m_b, rows_b) = runs
    agree = m_a == m_b
    ok = np.array_equal(rows_a[agree], rows_b[agree])
    for t, m_star, rows in runs:
        # u is stream 1; b1 and b2, columns 2 and 3, key x and y, streams 2
        # and 3.  The other processor's stream gets a state no search used,
        # that of its index plus one
        states = np.empty((3, len(t), 4), dtype=np.uint64)
        states[0] = _srandom(seed_words((seed, 0, 1), t[:, [0, 1]]))
        states[own - 1] = _srandom(seed_words((seed, 0, own), t[:, [0, 1, own]]))
        states[other - 1] = _srandom(seed_words((seed, 0, other), t[:, [0, 1, other]] + [0, 0, 1]))
        for k, m in enumerate(m_star.tolist()):
            ok &= np.array_equal(rows[k], books.rows(states[:, k : k + 1], m, m + 1)[which][0, 0])
    return int(agree.sum()), bool(ok)


def pytest_collection_modifyitems(items):
    # Hypothesis imports libcst to write a patch for a failing example, and
    # that import warns; as an item mark this ignore is applied after the
    # command line's -W filters, inside the runtest protocol where the import
    # runs, so a failing example ends in a failure report under -W error too
    for item in items:
        item.add_marker(pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"))


def load_curve(name):
    with open(DATA / name) as fh:
        return [(float(r["t"]), float(r["f"])) for r in csv.DictReader(fh)]


@pytest.fixture(scope="session")
def curve_a01():
    return load_curve("curve_a01.csv")


@pytest.fixture(scope="session")
def curve_a02():
    return load_curve("curve_a02.csv")


@pytest.fixture(scope="session")
def source_3x3():
    return JointPmf(BASE_3X3 / BASE_3X3.sum())
