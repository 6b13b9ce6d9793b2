"""Tests for the 2bcgskew and perceptron direction predictors.

Branches execute in a fixed loop-body order (realistic control flow);
random interleavings would turn global history into noise and tell us
nothing about the predictors.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.branch.history import HistoryRegister
from repro.branch.perceptron import PerceptronConfig, PerceptronPredictor
from repro.branch.twobcgskew import GskewConfig, TwoBcGskew


def run_loop_body(pred, branch_fns, iterations=800, seed=3):
    """Execute `branch_fns` (pc -> outcome fn) round-robin; return accuracy."""
    rng = random.Random(seed)
    hist = HistoryRegister(40)
    state = {}
    correct = total = 0
    for it in range(iterations):
        for pc, fn in branch_fns:
            actual = fn(it, rng, state, hist)
            taken, info = pred.predict(pc, hist.spec)
            total += 1
            correct += taken == actual
            pred.update(info, actual)
            hist.spec_push(actual)
            hist.commit_push(actual)
    return correct / total


def always_taken(it, rng, state, hist):
    return True


def biased(p):
    def fn(it, rng, state, hist):
        return rng.random() < p
    return fn


def loop_exit(trip):
    def fn(it, rng, state, hist):
        return (it % trip) != trip - 1
    return fn


def correlated(mask):
    def fn(it, rng, state, hist):
        return bool(bin(hist.commit & mask).count("1") & 1)
    return fn


BODY = [
    (0x1000, always_taken),
    (0x1010, biased(0.95)),
    (0x1020, loop_exit(5)),
    (0x1030, correlated(0b110)),
]


class TestTwoBcGskew:
    def test_learns_structured_body(self):
        acc = run_loop_body(TwoBcGskew(), BODY)
        assert acc > 0.9

    def test_near_perfect_on_static_branches(self):
        acc = run_loop_body(TwoBcGskew(), [(0x1000, always_taken)],
                            iterations=2000)
        assert acc > 0.995  # only cold-start mispredictions

    def test_counts_short_loops(self):
        acc = run_loop_body(TwoBcGskew(), [(0x2000, loop_exit(4))],
                            iterations=2000)
        assert acc > 0.95

    def test_small_tables_alias(self):
        """Shrinking the banks must hurt on a large static branch set."""
        big_body = [
            (0x1000 + i * 64, loop_exit(3 + i % 5)) for i in range(64)
        ]
        small = run_loop_body(
            TwoBcGskew(GskewConfig(bank_entries=64)), big_body,
            iterations=300,
        )
        large = run_loop_body(TwoBcGskew(), big_body, iterations=300)
        assert large > small


class TestPerceptron:
    def test_learns_structured_body(self):
        acc = run_loop_body(PerceptronPredictor(), BODY)
        assert acc > 0.93

    def test_counts_loops_via_local_history(self):
        acc = run_loop_body(PerceptronPredictor(), [(0x2000, loop_exit(6))],
                            iterations=2000)
        assert acc > 0.97

    def test_linearly_separable_correlation(self):
        acc = run_loop_body(
            PerceptronPredictor(), [(0x3000, correlated(0b1))],
            iterations=2000,
        )
        assert acc > 0.97

    def test_weights_saturate(self):
        pred = PerceptronPredictor()
        hist = HistoryRegister(40)
        for _ in range(1000):
            _, info = pred.predict(0x4000, hist.spec)
            pred.update(info, True)
            hist.spec_push(True)
        pidx = (0x4000 >> 2) & (pred.config.num_perceptrons - 1)
        assert all(
            pred.config.weight_min <= w <= pred.config.weight_max
            for w in pred.weights(pidx)
        )

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            PerceptronPredictor(PerceptronConfig(num_perceptrons=300))

    def test_threshold_formula(self):
        cfg = PerceptronConfig()
        assert cfg.threshold == int(1.93 * cfg.num_inputs + 14)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([(40, 14), (8, 4), (3, 4)]),
        seed=st.integers(0, 2**32 - 1),
        pc=st.integers(0, 2**20),
        ghist=st.integers(0, 2**64 - 1),
    )
    def test_predict_matches_the_bit_loop(self, shape, seed, pc, ghist):
        """The packed dot product equals a loop over every input bit,
        for any weights and inputs; the shapes cover 54 inputs (the
        Table 2 default), 12 (a padded last byte) and 7 (one byte)."""
        global_bits, local_bits = shape
        cfg = PerceptronConfig(
            num_perceptrons=16, global_history_bits=global_bits,
            local_table_entries=16, local_history_bits=local_bits,
        )
        pred = PerceptronPredictor(cfg)
        rng = random.Random(seed)
        n = cfg.num_inputs
        for pidx in range(cfg.num_perceptrons):
            weights = [rng.randint(cfg.weight_min, cfg.weight_max)
                       for _ in range(n + 1)]
            pred.set_weights(pidx, weights)
        pred._local = [rng.getrandbits(local_bits)
                       for _ in range(cfg.local_table_entries)]
        taken, (pidx, _lidx, bits, y) = pred.predict(pc, ghist)
        weights = pred.weights(pidx)
        expected = weights[0] + sum(
            weights[i + 1] if (bits >> i) & 1 else -weights[i + 1]
            for i in range(n)
        )
        assert y == expected
        assert taken == (expected >= 0)


class TestComparative:
    def test_both_beat_static_on_correlated(self):
        """History predictors must beat the 50% static floor."""
        body = [(0x5000, correlated(0b101))]
        for pred in (TwoBcGskew(), PerceptronPredictor()):
            assert run_loop_body(pred, body, iterations=1500) > 0.9
