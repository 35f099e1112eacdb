"""Bulk derivation of the PCG64 states that ``np.random.default_rng`` seeds.

``np.random.default_rng(entropy)`` hashes a list of nonnegative ints with
numpy's ``SeedSequence`` (O'Neill's seed_seq_fe: a pool of four 32-bit
words) and seeds PCG64 from ``generate_state(4, uint64)``; nearly all the
cost of building one is per-call overhead.  Here the same hash runs as
numpy uint32 arithmetic over a whole batch of keys, which costs about as
much for a few hundred keys as for one.  The keys of a batch share a
prefix of any nonnegative ints and end in rows of 32-bit entries, so every
key has the same number of words, or one fewer for a leading run of short
keys, which lets the u keys of a chunk share its x and y keys' pass.  The
hash runs in place over a pool of four words a key, and ``_srandom`` then
runs PCG64's seeding on its output rows in place, giving each key's
(state, inc) as four uint64 words.
``draw_uniforms`` draws from those states: it writes each row with one
32-byte copy into the calling thread's ``Generator(PCG64)``, through a view
of the (state, inc) that numpy's ``pcg64_state`` points to.  That pointer
and the word order are numpy internals, which this module alone reads; a
thread's first draw checks them against the generator's ``state`` dict and
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
import threading

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
_ONE, _TOP = np.uint64(1), np.uint64(63)


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


def _hashmix(values, xors, mults, out, spare):
    """hashmix of ``values`` with each (xor, multiplier) pair, written into ``out``; ``spare`` is scratch of ``out``'s shape."""
    np.bitwise_xor(values, xors, out=out)
    out *= mults
    np.right_shift(out, _XSHIFT, out=spare)
    out ^= spare
    return out


def _mix(x, y, spare):
    """x <- mix(x, y) in place; ``y`` is overwritten and ``spare`` is scratch of ``x``'s shape."""
    x *= _MIX_L
    y *= _MIX_R
    x -= y
    np.right_shift(x, _XSHIFT, out=spare)
    x ^= spare


def seed_words(prefix, table, short=0):
    """``generate_state(4, uint64)`` of ``SeedSequence([*prefix, *row])`` for each row of ``table``.

    ``prefix`` holds the nonnegative ints every key starts with; ``table``
    is a (keys, k) array of ints in [0, 2^32) ending each key, one entropy
    word each; another entry raises ValueError.  The first ``short`` keys
    end one word early: their last table entry is not read.
    Returns a (keys, 4) uint64 array: seed hi, seed lo, inc hi, inc lo,
    the transpose of a C-contiguous (4, keys) array, so that ``_srandom``
    reads each word of all keys as one contiguous row.  The hash runs in
    place on a pool of four words a key, with two scratch arrays of its
    size, and copies its output words into the returned array: 64 bytes a
    key at its peak, the table aside, or up to 84 with the buffers numpy's
    ufuncs take below a few thousand keys.
    """
    table = np.asarray(table)
    if table.size and not (table.min() >= 0 and table.max() <= _MASK32):
        raise ValueError(f"seed_words: table entries must lie in [0, 2^32), got {table.min()} to {table.max()}")
    head = [w for value in prefix for w in _int_words(value)]
    keys, cols = table.shape
    # each key's words, one entry per word: the prefix's as ints, the table's as rows
    words = [*head, *table.astype(np.uint32, copy=False).T]
    last = len(words) - 1  # the word the short keys lack
    words += [0] * (_POOL - len(words))  # zero-padded to the pool size
    steps = _schedule(len(words))
    # scratch and the pool, one array: output words 0-3 end in the scratch and 4-7 in the pool
    hashed, pool = both = np.empty((2, _POOL, keys), dtype=np.uint32)
    spare, kept = np.empty_like(pool), np.empty(keys, dtype=np.uint32)
    # seed_seq_fe mix_entropy: fill the pool, cross-mix it, then fold in
    # the words past the pool, each into every pool word
    for row, word in zip(pool, words):
        row[:] = word
    if short and last < _POOL:
        pool[last, :short] = 0  # a short key's padding
    _hashmix(pool, *steps[0], pool, spare)
    for src, consts in enumerate(steps[1 : _POOL + 1]):
        kept[:] = pool[src]  # the source row is not mixed into itself
        _mix(pool, _hashmix(pool[src], *consts, hashed, spare), spare)
        pool[src] = kept
    for i, (word, consts) in enumerate(zip(words[_POOL:], steps[_POOL + 1 :]), _POOL):
        live = slice(short if i == last else 0, None)
        _hashmix(word, *consts, hashed, spare)
        _mix(pool[:, live], hashed[:, live], spare[:, live])
    # generate_state: eight output words cycling over the pool, hashed
    # before the output is allocated, then paired little-endian into
    # 64-bit words, one contiguous row per word
    xors, mults = _OUTPUT
    _hashmix(pool, xors[:_POOL], mults[:_POOL], hashed, spare)
    _hashmix(pool, xors[_POOL:], mults[_POOL:], pool, spare)
    del spare, kept
    out = np.empty((_POOL, keys), dtype="<u8")
    halves = out.view("<u4").reshape(_POOL, keys, 2)
    output = both.reshape(2 * _POOL, keys)  # words 0-7
    halves[..., 0], halves[..., 1] = output[0::2], output[1::2]
    return out.T


def _srandom(words):
    """PCG64's seeding (srandom) of each row of ``words``, a (keys, 4) uint64 array, in place; returns ``words``.

    ``words`` holds rows of ``seed_words``: seed hi, seed lo, inc hi, inc
    lo.  Each row is overwritten by the seeded state and increment as
    64-bit words: state lo, state hi, inc lo, inc hi.  It holds six
    8-byte scratch words a row at most, and no copy of ``words``.
    """
    words = np.asarray(words, dtype=np.uint64)
    c0, c1, c2, c3 = words.T  # seed hi, seed lo, initseq hi, initseq lo
    # inc = 2 initseq + 1, its low word into c2 and its high one into c3
    low = c3 << _ONE
    low |= _ONE
    c3 >>= _TOP
    c3 |= c2 << _ONE
    c2[:] = low
    # step from 0 (giving inc), add the seed, its low word into c0 and its
    # high one into c1, and step
    np.add(c1, c2, out=low)
    np.add(c0, c3, out=c1)
    c1 += low < c2
    c0[:] = low
    _step(words)
    return words


class StateLayoutError(RuntimeError):
    """numpy's PCG64 does not hold its state as the words of a ``_srandom`` row."""


def _check_layout(gen, view):
    """Raise StateLayoutError unless a ``_srandom`` row written through ``view`` seeds ``gen`` as numpy would.

    ``view`` is 32 writable bytes that must read as ``gen``'s own (state,
    inc) in a row's word order, which is checked before anything is
    written.  Then one row is written and ``gen``'s next double must equal
    that of ``default_rng`` on the row's key.
    """
    pcg = gen.bit_generator.state["state"]
    expect = [pcg["state"] & _MASK64, pcg["state"] >> 64, pcg["inc"] & _MASK64, pcg["inc"] >> 64]
    found = np.frombuffer(view, dtype=np.uint64).tolist()
    if found != expect:
        raise StateLayoutError(
            f"PCG64 state words read {found}, expected (state lo, state hi, inc lo, inc hi) = {expect}"
        )
    key = [_MASK32, 0, 1]
    view[:] = _srandom(seed_words((), [key])).tobytes()
    drawn, expect_draw = gen.random(), np.random.default_rng(key).random()
    if drawn != expect_draw:
        raise StateLayoutError(f"PCG64 seeded by a written state drew {drawn!r}, default_rng drew {expect_draw!r}")


#: each thread's generator and a writable view of its PCG64 (state, inc)
_local = threading.local()


def _thread_generator():
    """The calling thread's ``Generator(PCG64)`` and its (state, inc) as 32 writable bytes, built and checked on first use."""
    try:
        return _local.gen, _local.view
    except AttributeError:
        gen = np.random.Generator(np.random.PCG64(0))
        # numpy's pcg64_state, whose first member points to the (state, inc) pair
        address = ctypes.c_void_p.from_address(gen.bit_generator.ctypes.state_address).value
        view = memoryview((ctypes.c_char * 32).from_address(address)).cast("B")
        _check_layout(gen, view)
        _local.gen, _local.view = gen, view
        return gen, view


def draw_uniforms(rows, skip, out):
    """Fill each ``out[i]`` with what ``Generator.random`` draws from the stream of ``_srandom`` row ``rows[i]`` after ``skip`` raw outputs.

    ``rows`` is a C-contiguous (len(out), 4) uint64 array.  Each row is
    written whole into the calling thread's generator, so nothing carries
    over from one row to the next, and ``has_uint32`` stays as it was:
    ``random`` and ``advance`` never set it.  The thread's first draw checks
    the state layout (``_check_layout``) and raises StateLayoutError on a
    mismatch; a failed check keeps nothing, so the next draw checks again.
    """
    gen, view = _thread_generator()
    words = memoryview(rows).cast("B")
    for i, block in enumerate(out):
        view[:] = words[32 * i : 32 * i + 32]
        if skip:
            gen.bit_generator.advance(skip)
        gen.random(out=block)
    return out


def _step(rows):
    """PCG64's LCG step, state * multiplier + inc mod 2^128, in place on each row of ``rows``: state lo, state hi, inc lo, inc hi."""
    lo, hi, inc_lo, inc_hi = rows.T
    # the high word of lo * multiplier's low word, from 32-bit limbs: mid
    # gathers the low limbs' product's high half and the cross products'
    # low halves, carry the rest
    mid, carry = lo & _LOW32, lo >> _SHIFT32
    cross = mid * _MULT_LO1, carry * _MULT_LO0
    mid *= _MULT_LO0
    mid >>= _SHIFT32
    carry *= _MULT_LO1
    for c in cross:
        carry += c >> _SHIFT32
        c &= _LOW32
        mid += c
    mid >>= _SHIFT32
    carry += mid
    hi *= _MULT_LO
    hi += carry
    hi += lo * _MULT_HI
    hi += inc_hi
    lo *= _MULT_LO
    lo += inc_lo
    hi += lo < inc_lo


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
    states = _srandom(np.array(words, dtype=np.uint64))
    keys = np.arange(len(states))
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
                _step(states)
                raw = _xsl_rr(states[:, 1], states[:, 0])
                halves = np.concatenate((halves, [raw & _LOW32, raw >> _SHIFT32]))
            product = halves[used[todo], todo] * np.uint64(high)
            used[todo] += 1
            bound[todo] = product >> _SHIFT32
            todo = todo[(product & _LOW32) < threshold]
    return out.T.astype(np.int64)
