"""Bulk derivation of the PCG64 states that ``np.random.default_rng`` seeds.

``np.random.default_rng(entropy)`` hashes a list of nonnegative ints with
numpy's ``SeedSequence`` (O'Neill's seed_seq_fe: a pool of four 32-bit
words) and seeds PCG64 from ``generate_state(4, uint64)``; nearly all the
cost of building one is per-call overhead.  Here the same hash runs as
numpy uint32 arithmetic over a whole batch of keys, which costs about as
much for a few hundred keys as for one.  The keys of a batch share a
prefix of any nonnegative ints and end in rows of 32-bit entries, so every
key has the same number of words.  ``_srandom`` then runs PCG64's seeding
on the batch and gives each key's (state, inc) as four uint64 words, which
a reused ``Generator(PCG64)`` takes with one 32-byte copy to the address
``state_address`` finds.  That address and the word order are numpy's
``pcg64_state`` internals, so the first call of ``state_address`` in a
process checks them against the generator's ``state`` dict and
``default_rng`` and raises ``StateLayoutError`` on a mismatch.  The
streams are bit-identical to ``default_rng([*prefix, *row])``.

The module also reproduces ``Generator.integers``: ``draw_integers`` runs
PCG64 and numpy's bounded 32-bit draws on uint64 arrays, one key per
element, and returns bit for bit what ``integers`` draws from each key's
state, with no generator set per key.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

from .pmf import _is_int

_POOL = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
#: PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: the multiplier's high and low 64-bit words, and the low word's 32-bit limbs
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64)
_MULT_LO1, _MULT_LO0 = np.uint64(_PCG_MULT >> 32 & _MASK32), np.uint64(_PCG_MULT & _MASK32)
_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)


def _int_words(value):
    """Little-endian 32-bit words of a nonnegative int; 0 is one zero word."""
    value = int(value)
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _hash_consts(init, mult, count):
    """(xor, multiplier) of each of ``count`` successive hashmix calls."""
    xors, mults, h = [], [], init
    for _ in range(count):
        xors.append(h)
        h = h * mult & _MASK32
        mults.append(h)
    return np.array(xors, dtype=np.uint32), np.array(mults, dtype=np.uint32)


@functools.lru_cache(maxsize=8)
def _schedule(total):
    """mix_entropy's hash constants over ``total`` words, one (xors, mults) column pair per step.

    Steps: filling the pool, the cross-mix from each source word (a dummy
    constant at the source's own row, whose result is discarded), and the
    fold of each word past the pool.
    """
    xors, mults = (v[:, None] for v in _hash_consts(_INIT_A, _MULT_A, _POOL * total))
    for v in (xors, mults):
        v.setflags(write=False)
    steps = [(xors[:_POOL], mults[:_POOL])]
    c = _POOL
    for src in range(_POOL):
        steps.append(tuple(np.insert(v[c : c + _POOL - 1], src, 0, axis=0) for v in (xors, mults)))
        c += _POOL - 1
    steps.extend((xors[i : i + _POOL], mults[i : i + _POOL]) for i in range(c, _POOL * total, _POOL))
    return steps


#: generate_state's constants for eight 32-bit output words
_OUTPUT = tuple(v[:, None] for v in _hash_consts(_INIT_B, _MULT_B, 2 * _POOL))


def _hashmix(values, xors, mults):
    values = (values ^ xors) * mults
    return values ^ (values >> _XSHIFT)


def _mix(x, y):
    result = x * _MIX_L - y * _MIX_R
    return result ^ (result >> _XSHIFT)


def seed_words(prefix, table):
    """``generate_state(4, uint64)`` of ``SeedSequence([*prefix, *row])`` for each row of ``table``.

    ``prefix`` holds the nonnegative ints every key starts with; ``table``
    is a (keys, k) array of ints in [0, 2^32) ending each key, one entropy
    word each; another entry raises ValueError.
    Returns a (keys, 4) uint64 array: seed hi, seed lo, inc hi, inc lo.
    """
    table = np.asarray(table)
    if table.size and not (table.min() >= 0 and table.max() <= _MASK32):
        raise ValueError(f"seed_words: table entries must lie in [0, 2^32), got {table.min()} to {table.max()}")
    head = [w for value in prefix for w in _int_words(value)]
    keys, cols = table.shape
    # one key per column, zero-padded to the pool size
    words = np.zeros((max(_POOL, len(head) + cols), keys), dtype=np.uint32)
    words[: len(head)] = np.array(head, dtype=np.uint32)[:, None]
    words[len(head) : len(head) + cols] = table.T
    steps = _schedule(len(words))
    # seed_seq_fe mix_entropy: fill the pool, cross-mix it, then fold in
    # the words past the pool, each into every pool word
    pool = _hashmix(words[:_POOL], *steps[0])
    for src, consts in enumerate(steps[1 : _POOL + 1]):
        mixed = _mix(pool, _hashmix(pool[src], *consts))
        mixed[src] = pool[src]
        pool = mixed
    for word, consts in zip(words[_POOL:], steps[_POOL + 1 :]):
        pool = _mix(pool, _hashmix(word, *consts))
    # generate_state: eight output words cycling over the pool, paired
    # little-endian into 64-bit words
    out = _hashmix(np.tile(pool, (2, 1)), *_OUTPUT).astype(np.uint64)
    return (out[0::2] | (out[1::2] << np.uint64(32))).T


def _srandom(words):
    """PCG64's seeding (srandom) of each row of ``words``: a C-contiguous (keys, 4) uint64 array.

    ``words`` holds rows of ``seed_words``.  Each output row is the seeded
    state and increment as 64-bit words: state lo, state hi, inc lo, inc hi.
    """
    seed_hi, seed_lo, inc_hi, inc_lo = np.asarray(words, dtype=np.uint64).T
    # inc = 2 initseq + 1, step from 0 (giving inc), add the seed, step
    inc_hi, inc_lo = inc_hi << np.uint64(1) | inc_lo >> np.uint64(63), inc_lo << np.uint64(1) | np.uint64(1)
    lo = inc_lo + seed_lo
    state_hi, state_lo = _step(inc_hi + seed_hi + (lo < seed_lo), lo, inc_hi, inc_lo)
    return np.stack((state_lo, state_hi, inc_lo, inc_hi), axis=1)


class StateLayoutError(RuntimeError):
    """numpy's PCG64 does not hold its state as the words of a ``_srandom`` row."""


#: whether this process has checked numpy's PCG64 state layout
_layout_checked = False


def _read_words(address):
    """The four uint64 words at ``address``, as ints."""
    return list((ctypes.c_uint64 * 4).from_address(address))


def _check_layout(gen, address):
    """Raise StateLayoutError unless a ``_srandom`` row written to ``address`` seeds ``gen`` as numpy would.

    The 32 bytes at ``address`` must read as ``gen``'s own (state, inc) in
    a row's word order, which is checked before anything is written.  Then
    one row is written and ``gen``'s next double must equal that of
    ``default_rng`` on the row's key.  ``gen`` is left as it was found.
    """
    bits = gen.bit_generator
    saved = bits.state
    pcg = saved["state"]
    expect = [pcg["state"] & _MASK64, pcg["state"] >> 64, pcg["inc"] & _MASK64, pcg["inc"] >> 64]
    found = _read_words(address)
    if found != expect:
        raise StateLayoutError(
            f"PCG64 state words read {found}, expected (state lo, state hi, inc lo, inc hi) = {expect}"
        )
    key = [_MASK32, 0, 1]
    row = _srandom(seed_words((), [key]))
    ctypes.memmove(address, row.ctypes.data, row.nbytes)
    try:
        drawn = gen.random()
    finally:
        bits.state = saved
    expect_draw = np.random.default_rng(key).random()
    if drawn != expect_draw:
        raise StateLayoutError(f"PCG64 seeded by a written state drew {drawn!r}, default_rng drew {expect_draw!r}")


def state_address(gen):
    """Address of the 32 bytes holding the PCG64 (state, inc) of ``gen``, where a ``_srandom`` row may be written.

    The first call in a process checks the layout (``_check_layout``) and
    raises StateLayoutError on a mismatch; later calls skip the check.
    """
    global _layout_checked
    # numpy's pcg64_state, whose first member points to the (state, inc) pair
    address = ctypes.c_void_p.from_address(gen.bit_generator.ctypes.state_address).value
    if not _layout_checked:
        _check_layout(gen, address)
        _layout_checked = True
    return address


def _step(hi, lo, inc_hi, inc_lo):
    """PCG64's LCG step, state * multiplier + inc mod 2^128, on (hi, lo) uint64 arrays."""
    # the high word of lo * multiplier's low word, from 32-bit limbs
    lo0, lo1 = lo & _LOW32, lo >> _SHIFT32
    cross0, cross1 = lo0 * _MULT_LO1, lo1 * _MULT_LO0
    mid = (lo0 * _MULT_LO0 >> _SHIFT32) + (cross0 & _LOW32) + (cross1 & _LOW32)
    carry_hi = lo1 * _MULT_LO1 + (cross0 >> _SHIFT32) + (cross1 >> _SHIFT32) + (mid >> _SHIFT32)
    new_lo = lo * _MULT_LO + inc_lo
    return carry_hi + lo * _MULT_HI + hi * _MULT_LO + inc_hi + (new_lo < inc_lo), new_lo


def _xsl_rr(hi, lo):
    """PCG64's output of each (hi, lo) state: hi XOR lo rotated right by the top 6 bits of hi."""
    folded, rot = hi ^ lo, hi >> np.uint64(58)
    return folded >> rot | folded << ((np.uint64(64) - rot) & np.uint64(63))


def draw_integers(words, highs):
    """``default_rng(key).integers(highs)`` for the key of each row of ``words``: a (keys, len(highs)) int64 array.

    ``words`` holds rows of ``seed_words``; ``highs`` holds integer bounds
    in [1, 2^32], and another bound raises ValueError.  Each key's PCG64 is
    seeded by ``_srandom`` and stepped as arrays.  Its raw outputs are
    handed out as 32-bit halves, the low half first, as ``next_uint32``
    does.  Each bound takes Lemire's method over the key's next halves,
    retrying a rejected key on its next half, and a bound of 1 takes no
    half.
    """
    for high in highs:
        if not (_is_int(high) and 1 <= high <= 1 << 32):
            raise ValueError(f"draw_integers: bounds must be integers in [1, 2^32], got {high!r}")
    state_lo, state_hi, inc_lo, inc_hi = _srandom(words).T
    state = state_hi, state_lo
    keys = np.arange(len(state_lo))
    halves = np.empty((0, keys.size), dtype=np.uint64)  # row i: each key's i-th 32-bit half
    used = np.zeros(keys.size, dtype=np.intp)  # halves each key has taken
    out = np.zeros((len(highs), keys.size), dtype=np.uint64)
    for bound, high in zip(out, map(int, highs)):
        if high == 1:  # draws 0 and takes no half
            continue
        # Lemire: a product whose low word is below 2^32 mod high is rejected
        todo, threshold = keys, np.uint64((1 << 32) % high)
        while todo.size:
            if used[todo].max() == len(halves):  # one more raw output for every key
                state = _step(*state, inc_hi, inc_lo)
                raw = _xsl_rr(*state)
                halves = np.concatenate((halves, [raw & _LOW32, raw >> _SHIFT32]))
            product = halves[used[todo], todo] * np.uint64(high)
            used[todo] += 1
            bound[todo] = product >> _SHIFT32
            todo = todo[(product & _LOW32) < threshold]
    return out.T.astype(np.int64)
