"""``suite_rng`` against numpy's own seeding and draws, bit for bit, and
the guard that keeps numpy's stream internals in that one module."""
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import infotherm as it
from infotherm import cli, suite_rng

from conftest import names_used, seed_states

PACKAGE = Path(it.__file__).parent


class TestSeedStates:
    """``_trial_states`` and ``_generators`` against numpy's own seeding, bit
    for bit: entry [t, k] of ``_trial_states(seed, trials)`` is
    ``SeedSequence([seed, t, k]).generate_state(4, np.uint64)`` and each
    generator draws ``default_rng(seed)``'s stream."""

    SEEDS = [
        0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**200 + 3,
        [], [0], [1, 2, 3, 4, 5], list(range(9)), [2**40, 0, 2**96 + 7], [7] * 20,
        np.int64(7), np.uint8(3), np.uint64(2**64 - 1),
        np.array([3, 2**40], dtype=np.int64), np.array([5, 6, 7, 8, 9, 10], dtype=np.uint32),
        np.array([], dtype=np.uint32), (3, 4), (0, 2**32, 1), [42, 3, 1],
    ]
    #: The suite's seeds: nonnegative integers of one word up to seven.
    SUITE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**70, 2**200 + 3, 42]

    @staticmethod
    def reference(seed, trials):
        return seed_states([seed, t, k] for t in range(trials) for k in (0, 1)).tobytes()

    @staticmethod
    def states(seed, trials):
        states = suite_rng._trial_states(seed, trials)
        assert states.dtype == np.uint64 and states.shape == (trials, 2, 4)
        return states.tobytes()

    @pytest.mark.parametrize("seed", SUITE_SEEDS)
    def test_each_edge_seed(self, seed):
        assert self.states(seed, 5) == self.reference(seed, 5)

    def test_one_trial_and_none(self):
        for seed in self.SUITE_SEEDS:
            assert self.states(seed, 1) == self.reference(seed, 1)
        assert self.states(3, 0) == b""

    def test_a_sweep_of_seed_lengths_and_trial_counts(self):
        rng = np.random.default_rng(2024)
        for bits in [1, 31, 32, 33, 63, 64, 65, 96, 97, 128, 160, 224]:
            seed = int.from_bytes(rng.bytes(28), "little") % (1 << bits)
            trials = int(rng.integers(1, 40))
            assert self.states(seed, trials) == self.reference(seed, trials)

    @pytest.mark.parametrize("index", range(len(SEEDS)))
    def test_generators_draw_the_default_rng_stream(self, index):
        seed = self.SEEDS[index]
        (ours,) = suite_rng._generators(seed_states([seed]))
        theirs = np.random.default_rng(seed)
        for draw in (
            lambda g: g.normal(size=(3, 2)),
            lambda g: g.integers(0, 10**6, size=5),
            lambda g: g.dirichlet(np.ones(4), size=2),
            lambda g: g.random(),
            lambda g: g.integers(2, 7),
        ):
            assert np.asarray(draw(ours)).tobytes() == np.asarray(draw(theirs)).tobytes()

    def test_the_state_seed_serves_only_pcg64s_request(self):
        state = suite_rng._trial_states(3, 1)[0, 0]
        seed = suite_rng._state_seed_type()((state,))
        assert seed.generate_state(4, np.uint64) is state
        with pytest.raises(ValueError, match="asked for 8"):
            seed.generate_state(8, np.uint32)

    def test_importing_the_package_does_not_import_numpy_random(self):
        src = str(Path(it.__file__).resolve().parents[1])
        code = "import sys, infotherm, infotherm.cli; print('numpy.random' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        ).stdout
        assert out == "False\n"


def source(bits, halves):
    """A ``_PickSource`` that reads ``halves`` (the next one last), then the
    raw words of the bit generator ``bits``."""
    picks = suite_rng._PickSource.__new__(suite_rng._PickSource)
    picks._bits, picks._halves = bits, list(halves)
    return picks


def position(generator):
    """Where a ``Generator`` stands in its stream, as a ``_PickSource``
    records it: the PCG64 state and the buffered half, if any."""
    state = generator.bit_generator.state
    return state["state"], [state["uinteger"]] if state["has_uint32"] else []


class TestRawPicks:
    """``_PickSource.integers`` reads a picker's raw PCG64 words by numpy's
    bounded-integer rule; ``_pick`` on the picker's ``Generator`` is the
    reference."""

    KINDS = [cli._KINDS, ("pure",), ("mixed",), ("commuting",)]
    # one entry (commuting at d = 2 draws no outcome count), several, and
    # 31 entries, whose span leaves a threshold of 2^32 % 31 = 4
    DIMS = [[2], [3], [2, 3, 4], [2, 5], list(range(2, 33))]

    @pytest.mark.parametrize(
        "dims", DIMS, ids=lambda dims: ",".join(map(str, dims)) if len(dims) < 5 else "2-32"
    )
    @pytest.mark.parametrize(
        "kinds", KINDS, ids=lambda kinds: "all" if len(kinds) > 1 else kinds[0]
    )
    def test_raw_picks_equal_the_generator_picks(self, kinds, dims):
        # 20 cases x 2 seeds x 300 trials: 12,000 (seed, trial) picks
        for seed in (0, 2**40 + 7):
            states = suite_rng._trial_states(seed, 300)[:, 0]
            for picker, generator in zip(states, suite_rng._generators(states)):
                expected = cli._pick(generator, dims, kinds)
                assert cli._pick(suite_rng._PickSource(picker), dims, kinds) == expected

    @staticmethod
    def numpy_draw(half, span):
        """``Generator.integers(0, span)`` with ``half`` as the next 32-bit
        half it reads, and the generator after the draw."""
        bit_generator = np.random.PCG64(3)
        state = bit_generator.state
        state.update(has_uint32=1, uinteger=half)
        bit_generator.state = state
        generator = np.random.Generator(bit_generator)
        return int(generator.integers(0, span)), generator

    @pytest.mark.parametrize("span", [2, 3, 4, 5, 6, 7, 31])
    def test_integers_follow_numpys_rule(self, span):
        threshold = 2**32 % span
        halves = [0, 1, 2**31, 2**32 - 1, 0x9E3779B9, (2**32 - 1) // span + 1]
        # ceil(j 2^32 / span): products whose low words fall in [0, span),
        # on both sides of the threshold
        halves += [-(-j * 2**32 // span) for j in range(1, span)]
        for half in halves:
            value, generator = self.numpy_draw(half, span)
            picks = source(np.random.PCG64(3), [half])
            assert picks.integers(0, span) == value
            # a rejected half is drawn again from the same stream, an
            # accepted one reads nothing more
            assert (picks._bits.state["state"], picks._halves) == position(generator)
            redrawn = picks._halves or picks._bits.state != np.random.PCG64(3).state
            assert bool(redrawn) == ((half * span) % 2**32 < threshold)
        lows = [(half * span) % 2**32 for half in halves]
        assert any(low < threshold for low in lows) == (threshold > 0)
        assert any(threshold <= low < span for low in lows)

    def test_a_span_of_one_reads_nothing(self):
        bits = np.random.PCG64(3)
        picks = source(bits, [5, 6])
        assert picks.integers(4, 5) == 4 and picks._halves == [5, 6]
        assert bits.state == np.random.PCG64(3).state

    # numpy rejects a half u of this span where u * span mod 2^32 falls
    # below 2^32 % span = 2^31 - 1, about one half in two
    WIDE = 2**31 + 1

    @pytest.mark.parametrize(
        "trial, rejected",
        [(2, 1), (1, 2), (12, 4)],
        ids=["a rejected first half", "two rejected halves", "the fifth half"],
    )
    def test_redraws_read_on_in_the_same_stream(self, trial, rejected):
        # the picker of seed [7, trial] rejects its first `rejected` halves
        # for WIDE and accepts the next; four rejected halves read the
        # fifth, past the two raw words that the four draws of a pick read
        (state,) = seed_states([[7, trial]])
        words = suite_rng._generators([state])[0].bit_generator.random_raw(3)
        halves = [h for w in words.tolist() for h in (w & 0xFFFFFFFF, w >> 32)]
        lows = [(half * self.WIDE) % 2**32 for half in halves]
        threshold = 2**32 % self.WIDE
        assert [low < threshold for low in lows[: rejected + 1]] == [True] * rejected + [False]
        picks = suite_rng._PickSource(state)
        (reference,) = suite_rng._generators([state])
        drawn = [picks.integers(5, 5 + self.WIDE) for _ in range(6)]
        assert drawn == reference.integers(5, 5 + self.WIDE, size=6).tolist()
        assert (picks._bits.state["state"], picks._halves) == position(reference)


class TestStreamInternalsStayInOneModule:
    """Only ``suite_rng`` names numpy's stream internals; the other modules
    use ``np.random.default_rng`` and what ``suite_rng`` hands them."""

    NAMES = re.compile(r"\b(PCG64|SeedSequence|ISeedSequence|random_raw)\b")

    def test_only_suite_rng_names_them(self):
        found = names_used(self.NAMES, sorted(PACKAGE.glob("*.py")))
        assert found.pop("suite_rng.py") == ["ISeedSequence", "PCG64", "SeedSequence", "random_raw"]
        assert found == {}

    def test_the_guard_sees_each_name(self, tmp_path):
        stray = tmp_path / "stray.py"
        stray.write_text(
            "rng = np.random.default_rng(3)\n"
            "bits = np.random.PCG64(3).random_raw(2)\n"
            "# numpy.random.bit_generator.ISeedSequence, SeedSequence\n"
            "PCG64DXSM = seeded_sequence = 1\n"
        )
        assert names_used(self.NAMES, [stray]) == {
            "stray.py": ["ISeedSequence", "PCG64", "SeedSequence", "random_raw"]
        }
