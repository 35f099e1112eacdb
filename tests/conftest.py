import csv
import pathlib

import numpy as np
import pytest

from coordrate.pmf import AuxChannel, JointPmf, PmfError

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
