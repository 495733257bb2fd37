"""The suite's random streams, ``np.random.default_rng(seed)``'s for many
seeds at once.  The one module that knows numpy's ``SeedSequence`` hash,
how ``PCG64`` seeds itself and numpy's bounded-integer rule, each written
as numpy 2.4.6 writes it; the rest of the package sees only generators and
a ``_PickSource``.  ``numpy.random`` is imported on first use."""
from __future__ import annotations

import functools

import numpy as np

#: numpy's ``SeedSequence`` constants (O'Neill's seed_seq_fe): the pool
#: hash, the output hash, the two-word mix, the pool size in words and
#: the xorshift of every hash and mix.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
_SHIFT = np.uint32(16)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The running hash constant of ``count`` consecutive hashes, from
    ``init``, as a (count + 1, 1) uint32 column: entry k is the constant
    hash k xors in, and entry k + 1 the one it multiplies by."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashes(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """The (H, R) hashes of the uint32 ``words``, (H, R) or one (R,) row
    hashed H times, row k with the constants ``consts[k]`` and
    ``consts[k + 1]``, as numpy's hashmix hashes a word: a new array, so
    the words hashed stay."""
    value = words ^ consts[:-1]
    value *= consts[1:]
    value ^= value >> _SHIFT
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's two-word mix of uint32 arrays, elementwise."""
    result = _MIX_L * x - _MIX_R * y
    result ^= result >> _SHIFT
    return result


def _mix_entropy(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence.mix_entropy`` of the (L, R) uint32 entropy words of R
    seeds of L words each, as numpy writes it: the pool's 4 words of each
    seed, (4, R).  The running hash constant is the same for every seed,
    and the hashes numpy runs one pool word at a time run a row of the
    pool at once: the words that fill the pool, the 3 hashes of each pool
    word mixed into the other three, and the 4 hashes of each entropy word
    past the pool."""
    words, seeds = entropy.shape
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * max(0, words - _POOL))
    first = np.zeros((_POOL, seeds), dtype=np.uint32)
    first[:min(words, _POOL)] = entropy[:_POOL]
    pool, used = _hashes(first, consts[:_POOL + 1]), _POOL
    for i_src in range(_POOL):
        others = [i_dst for i_dst in range(_POOL) if i_dst != i_src]
        pool[others] = _mix(pool[others], _hashes(pool[i_src], consts[used:used + _POOL]))
        used += _POOL - 1
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hashes(word, consts[used:used + _POOL + 1]))
        used += _POOL
    return pool


def _generate_state(pool: np.ndarray) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` of R seeds' (4, R)
    pools from ``_mix_entropy``, as numpy writes it: 8 uint32 words read
    off the pool in cycle, hashed as one array, and paired into
    little-endian uint64s.  Returns (R, 4)."""
    words = _hashes(np.concatenate([pool, pool]), _hash_constants(_INIT_B, _MULT_B, 2 * _POOL))
    return words.T.astype("<u4", order="C").view("<u8")


def _trial_states(seed: int, trials: int) -> np.ndarray:
    """The (trials, 2, 4) uint64 PCG64 states of the seeds ``[seed, t, k]``
    for t < trials and k in (0, 1): entry [t, k] is
    ``np.random.SeedSequence([seed, t, k]).generate_state(4, np.uint64)``.
    The seed is split once into its 32-bit words, least significant first
    (one zero word for 0), as ``SeedSequence`` reads an integer, and t and
    k, each below 2^32 (the suite's work cap keeps trials far below it),
    are one word each, so every seed's entropy has one length and all of
    them are hashed as one array, ``_mix_entropy`` and
    ``_generate_state`` vectorised over them."""
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    entropy = np.empty((len(words) + 2, trials, 2), dtype=np.uint32)
    entropy[:-2] = np.array(words, dtype=np.uint32)[:, None, None]
    entropy[-2] = np.arange(trials, dtype=np.uint32)[:, None]
    entropy[-1] = (0, 1)
    pool = _mix_entropy(entropy.reshape(len(entropy), -1))
    return _generate_state(pool).reshape(trials, 2, 4)


@functools.cache
def _state_seed_type() -> type:
    """A minimal ``ISeedSequence`` that hands ``PCG64`` a state computed
    ahead, built as the 1-tuple ``(state,)``: a tuple is made without
    running any Python code.  Built on first use: importing the package
    does not import ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class StateSeed(ISeedSequence, tuple):
        __slots__ = ()

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError(f"holds 4 uint64 words, asked for {n_words} {dtype}")
            return self[0]

    return StateSeed


def _generators(states) -> list:
    """The generators ``np.random.default_rng(seed)`` builds, one for each
    seed's PCG64 state (an entry of ``_trial_states``): ``PCG64`` seeds
    itself from that state."""
    seed_type = _state_seed_type()
    return [np.random.Generator(np.random.PCG64(seed_type((state,)))) for state in states]


class _PickSource:
    """``np.random.default_rng(seed).integers`` from the seed's PCG64 state
    (an entry of ``_trial_states``), off the ``PCG64`` raw words, each low
    half first."""

    __slots__ = ("_bits", "_halves")

    def __init__(self, state: np.ndarray):
        self._bits = np.random.PCG64(_state_seed_type()((state,)))
        self._halves = []

    def integers(self, low: int, high: int) -> int:
        """``Generator.integers(low, high)`` for a range under 2^32, by
        numpy's rule (Lemire, ACM TOMACS 29(1), 2019): a range of one value
        reads nothing; else the next half u gives ``low + (u * span >> 32)``
        unless the product's low word is below ``2^32 % span``: then the
        next half is drawn in its place."""
        span = high - low
        if span == 1:
            return low
        halves = self._halves
        while True:
            if not halves:
                word = self._bits.random_raw()
                halves += (word >> 32, word & _MASK32)
            scaled = halves.pop() * span
            if scaled & _MASK32 >= 2**32 % span:
                return low + (scaled >> 32)
