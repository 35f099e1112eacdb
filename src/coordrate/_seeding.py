"""Bulk derivation of the PCG64 states that ``np.random.default_rng`` seeds.

``np.random.default_rng(entropy)`` hashes a list of nonnegative ints with
numpy's ``SeedSequence`` (O'Neill's seed_seq_fe: a pool of four 32-bit
words) and seeds PCG64 from ``generate_state(4, uint64)``; nearly all the
cost of building one is per-call overhead.  Here the same hash runs as
numpy uint32 arithmetic over a whole batch of keys, which costs about as
much for a few hundred keys as for one, and each state is set on a reused
``Generator(PCG64)``.  The keys of a batch share a prefix of any
nonnegative ints and end in rows of 32-bit entries, so every key has the
same number of words.  The streams are bit-identical to
``default_rng([*prefix, *row])``.
"""

from __future__ import annotations

import functools

import numpy as np

_POOL = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


def set_state(generator, words):
    """Seed a PCG64 ``generator`` from one row of ``seed_words``, as ``PCG64(seed_seq)`` does."""
    seed_hi, seed_lo, inc_hi, inc_lo = words
    # PCG64 srandom: inc = 2 initseq + 1, step from 0, add the seed, step
    inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
    state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128
    generator.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator
