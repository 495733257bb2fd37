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


def _mix_entropy(entropy: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence.mix_entropy`` of the (L, R) uint32 entropy words of R
    seeds of L words each, as numpy writes it: the pool's 4 words, each a
    (R,) row.  The running hash constant is the same for every seed."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)  # a new array: the words hashed stay
        const = const * _MULT_A & _MASK32
        value *= np.uint32(const)
        value ^= value >> _SHIFT
        return value

    def mix(x, y):
        result = _MIX_L * x - _MIX_R * y
        result ^= result >> _SHIFT
        return result

    zeros = np.zeros(entropy.shape[1], dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(_POOL)]
    for i_src in range(_POOL):
        for i_dst in range(_POOL):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL, len(entropy)):
        for i_dst in range(_POOL):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[i_src]))
    return pool


def _generate_state(pool: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` of R seeds' pools from
    ``_mix_entropy``, as numpy writes it: 8 uint32 words read off the pool
    in cycle, paired into little-endian uint64s.  Returns (R, 4)."""
    const, words = _INIT_B, []
    for i_dst in range(2 * _POOL):
        value = pool[i_dst % _POOL] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value *= np.uint32(const)
        value ^= value >> _SHIFT
        words.append(value)
    return np.array(words).T.astype("<u4", order="C").view("<u8")


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
