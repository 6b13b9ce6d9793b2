"""Differential tests of the branch predictors against reference copies.

Each reference below is a test-local copy of an earlier implementation
that kept its state unpacked: the perceptron with one list of weights
per perceptron (and its memo of outputs), the 2bcgskew predictor with
its banks as counter-table objects, and the BTB with a per-entry
direction-update method.  The current implementations must give the
same predictions and leave the same state after long random
predict/update sequences, with updates delayed as in a pipeline.

``TestGskewCounters`` checks the 2-bit counter rules of the 2bcgskew
banks (saturation, hysteresis, strengthen-only-if-agreeing) directly.
"""

import random
from collections import deque
from itertools import chain, compress

import pytest
from hypothesis import given, settings, strategies as st

from repro.branch.btb import BranchTargetBuffer
from repro.branch.perceptron import PerceptronConfig, PerceptronPredictor
from repro.branch.twobcgskew import GskewConfig, TwoBcGskew
from repro.common.hashing import fold_xor
from repro.common.types import BranchKind


# ----------------------------------------------------------------------
# reference perceptron: unpacked weights, a running weight sum, a memo
# ----------------------------------------------------------------------
_BYTE_BITS = tuple(tuple((b >> i) & 1 for i in range(8)) for b in range(256))


class _RefPerceptron:
    def __init__(self, cfg):
        n = cfg.num_inputs
        self._weights = [[0] * (n + 1) for _ in range(cfg.num_perceptrons)]
        self._local = [0] * cfg.local_table_entries
        self._local_mask = (1 << cfg.local_history_bits) - 1
        self._wsum = [0] * cfg.num_perceptrons
        self._epoch = [0] * cfg.num_perceptrons
        self._y_memo = {}
        self._threshold = cfg.threshold
        self._n_inputs = n
        self._n_bytes = (n + 8) // 8
        self._wmin = cfg.weight_min
        self._wmax = cfg.weight_max
        self._pidx_mask = cfg.num_perceptrons - 1
        self._lidx_mask = cfg.local_table_entries - 1
        self._ghist_mask = (1 << cfg.global_history_bits) - 1
        self._lh_bits = cfg.local_history_bits

    def predict(self, pc, global_history):
        word = pc >> 2
        pidx = word & self._pidx_mask
        lidx = word & self._lidx_mask
        bits = (((global_history & self._ghist_mask) << self._lh_bits)
                | self._local[lidx])
        memo = self._y_memo
        key = (pidx, self._epoch[pidx], bits)
        y = memo.get(key)
        if y is None:
            weights = self._weights[pidx]
            s = sum(compress(weights, chain.from_iterable(map(
                _BYTE_BITS.__getitem__,
                (bits << 1).to_bytes(self._n_bytes, "little"),
            ))))
            y = weights[0] - self._wsum[pidx] + 2 * s
            if len(memo) > (1 << 16):
                memo.clear()
            memo[key] = y
        return y >= 0, (pidx, lidx, bits, y)

    def update(self, info, taken):
        pidx, lidx, bits, y = info
        predicted = y >= 0
        if predicted != taken or abs(y) <= self._threshold:
            weights = self._weights[pidx]
            wmin = self._wmin
            wmax = self._wmax
            t = 1 if taken else -1
            w = weights[0] + t
            weights[0] = wmax if w > wmax else (wmin if w < wmin else w)
            x = bits
            s = 0
            for i in range(1, self._n_inputs + 1):
                w = weights[i] + (t if x & 1 else -t)
                w = wmax if w > wmax else (wmin if w < wmin else w)
                weights[i] = w
                s += w
                x >>= 1
            self._wsum[pidx] = s
            self._epoch[pidx] += 1
        self._local[lidx] = ((self._local[lidx] << 1) | int(taken)) & self._local_mask


# ----------------------------------------------------------------------
# reference 2bcgskew: counter-table banks with update/strengthen methods
# ----------------------------------------------------------------------
class _RefCounterTable:
    def __init__(self, size, init=1):
        self._mask = size - 1
        self._counters = [init] * size

    def update(self, index, taken):
        i = index & self._mask
        value = self._counters[i]
        if taken:
            if value < 3:
                self._counters[i] = value + 1
        elif value > 0:
            self._counters[i] = value - 1

    def strengthen(self, index, taken):
        i = index & self._mask
        value = self._counters[i]
        if taken and value >= 2 and value < 3:
            self._counters[i] = value + 1
        elif not taken and value <= 1 and value > 0:
            self._counters[i] = value - 1


class _RefGskew:
    def __init__(self, config):
        entries = config.bank_entries
        self._bim = _RefCounterTable(entries)
        self._g0 = _RefCounterTable(entries)
        self._g1 = _RefCounterTable(entries)
        self._meta = _RefCounterTable(entries, init=2)
        self._bits = entries.bit_length() - 1
        self._h0_mask = (1 << config.short_history_bits) - 1
        self._h1_mask = (1 << config.history_bits) - 1

    def predict(self, pc, history):
        word = pc >> 2
        bits = self._bits
        bim_i = fold_xor(word, bits)
        g0_i = fold_xor(word ^ ((history & self._h0_mask) << 5)
                        ^ (word << 2), bits)
        h1 = history & self._h1_mask
        g1_i = fold_xor(word ^ (h1 << 3) ^ (word << 7), bits)
        meta_i = fold_xor(word ^ (h1 << 9) ^ (word << 4), bits)
        p_bim = self._bim._counters[bim_i] >= 2
        p_g0 = self._g0._counters[g0_i] >= 2
        p_g1 = self._g1._counters[g1_i] >= 2
        p_eskew = (p_bim + p_g0 + p_g1) >= 2
        prediction = p_eskew if self._meta._counters[meta_i] >= 2 else p_bim
        return prediction, (bim_i, g0_i, g1_i, meta_i, p_bim, p_eskew)

    def update(self, info, taken):
        bim_i, g0_i, g1_i, meta_i, p_bim, p_eskew = info
        use_eskew = self._meta._counters[meta_i] >= 2
        prediction = p_eskew if use_eskew else p_bim
        if prediction == taken:
            if p_bim != p_eskew:
                self._meta.update(meta_i, use_eskew)
            if p_bim == taken:
                self._bim.strengthen(bim_i, taken)
            if use_eskew or p_bim != taken:
                if (self._g0._counters[g0_i] >= 2) == taken:
                    self._g0.strengthen(g0_i, taken)
                if (self._g1._counters[g1_i] >= 2) == taken:
                    self._g1.strengthen(g1_i, taken)
            return
        if p_bim != p_eskew:
            self._meta.update(meta_i, p_eskew == taken)
        self._bim.update(bim_i, taken)
        self._g0.update(g0_i, taken)
        self._g1.update(g1_i, taken)

    def banks(self):
        return [t._counters for t in (self._bim, self._g0, self._g1,
                                      self._meta)]


# ----------------------------------------------------------------------
# reference BTB: entries train their direction through a method
# ----------------------------------------------------------------------
class _RefEntry:
    def __init__(self, tag, target, kind):
        self.tag = tag
        self.target = target
        self.kind = kind
        self.counter = 2

    def update_direction(self, taken):
        if taken:
            if self.counter < 3:
                self.counter += 1
        elif self.counter > 0:
            self.counter -= 1


class _RefBTB:
    def __init__(self, entries, assoc):
        self.num_sets = entries // assoc
        self.assoc = assoc
        self.lookups = self.misses = self.allocations = self.evictions = 0
        self._sets = [[] for _ in range(self.num_sets)]
        self._index_mask = self.num_sets - 1
        self._tag_shift = self._index_mask.bit_length()

    def lookup(self, pc):
        word = pc >> 2
        ways = self._sets[word & self._index_mask]
        tag = word >> self._tag_shift
        self.lookups += 1
        if ways and ways[0].tag == tag:
            return ways[0]
        for i, entry in enumerate(ways):
            if entry.tag == tag:
                if i:
                    ways.insert(0, ways.pop(i))
                return entry
        self.misses += 1
        return None

    def update(self, pc, target, kind, taken):
        word = pc >> 2
        ways = self._sets[word & self._index_mask]
        tag = word >> self._tag_shift
        for i, entry in enumerate(ways):
            if entry.tag == tag:
                entry.update_direction(taken)
                if taken:
                    entry.target = target
                    entry.kind = kind
                if i:
                    ways.insert(0, ways.pop(i))
                return
        if not taken:
            return
        ways.insert(0, _RefEntry(tag, target, kind))
        self.allocations += 1
        if len(ways) > self.assoc:
            ways.pop()
            self.evictions += 1


# ----------------------------------------------------------------------
def _drive(new, ref, steps, seed, pcs, history_bits, check_state):
    """Random predict/update steps on both predictors.

    Each pc has a fixed taken probability (some always or never taken,
    so weights and counters run into both ends of their range), and up
    to three predictions are in flight before their updates, so a
    prediction may read state that an earlier update then changes.
    ``check_state`` compares the two predictors' whole state; it runs
    every 500 steps and at the end.
    """
    rng = random.Random(seed)
    bias = {pc: rng.choice((0.0, 0.03, 0.5, 0.97, 1.0)) for pc in pcs}
    history = 0
    hmask = (1 << history_bits) - 1
    pending = deque()
    for step in range(steps):
        pc = rng.choice(pcs)
        got = new.predict(pc, history)
        assert got == ref.predict(pc, history), step
        taken = rng.random() < bias[pc]
        history = ((history << 1) | taken) & hmask
        pending.append((got[1], taken))
        depth = rng.randrange(4)
        while len(pending) > depth:
            info, outcome = pending.popleft()
            new.update(info, outcome)
            ref.update(info, outcome)
        if step % 500 == 0:
            check_state()
    while pending:
        info, outcome = pending.popleft()
        new.update(info, outcome)
        ref.update(info, outcome)
    check_state()


class TestPackedPerceptron:
    @pytest.mark.parametrize("weight_range", [(-128, 127), (-8, 7), (-3, 5)])
    @pytest.mark.parametrize("shape", [(40, 14), (8, 4), (3, 4)])
    def test_matches_the_unpacked_reference(self, shape, weight_range):
        """50,000 steps per geometry: every ``(taken, info)`` and, every
        500 steps, every perceptron's weights and the local histories
        equal the reference's; the narrow weight ranges saturate at
        both ends."""
        global_bits, local_bits = shape
        wmin, wmax = weight_range
        cfg = PerceptronConfig(
            num_perceptrons=8, global_history_bits=global_bits,
            local_table_entries=16, local_history_bits=local_bits,
            weight_min=wmin, weight_max=wmax,
        )
        new = PerceptronPredictor(cfg)
        ref = _RefPerceptron(cfg)
        seen = set()

        def check_state():
            for pidx in range(cfg.num_perceptrons):
                weights = new.weights(pidx)
                assert weights == ref._weights[pidx], pidx
                seen.update(weights)
            assert new._local == ref._local

        rng = random.Random(repr((shape, weight_range)))
        pcs = [rng.randrange(1 << 14) * 4 for _ in range(24)]
        _drive(new, ref, 50_000, rng.randrange(1 << 30), pcs, 64,
               check_state)
        assert min(seen) >= wmin and max(seen) <= wmax
        if wmax - wmin < 255:
            assert wmin in seen and wmax in seen

    def test_tables_are_shared_per_geometry(self):
        a = PerceptronPredictor(PerceptronConfig(num_perceptrons=4))
        b = PerceptronPredictor(PerceptronConfig(num_perceptrons=8))
        narrow = PerceptronPredictor(PerceptronConfig(weight_min=-8,
                                                      weight_max=7))
        assert a._tables is b._tables
        assert narrow._tables is not a._tables

    def test_packing_round_trips(self):
        cfg = PerceptronConfig(num_perceptrons=4, global_history_bits=8,
                               local_history_bits=4, weight_min=-3,
                               weight_max=5)
        pred = PerceptronPredictor(cfg)
        assert pred.weights(2) == [0] * 13
        weights = [5, -3, 0, 5, 1, -2, 4, -3, 3, 2, 5, -1, 0]
        pred.set_weights(2, weights)
        assert pred.weights(2) == weights
        with pytest.raises(ValueError):
            pred.set_weights(2, [6] + weights[1:])

    def test_rejects_a_range_without_zero(self):
        with pytest.raises(ValueError):
            PerceptronPredictor(PerceptronConfig(weight_min=1,
                                                 weight_max=9))


class TestTwoBcGskewReference:
    @pytest.mark.parametrize("entries", [64, 1024, 32768])
    def test_matches_the_counter_table_reference(self, entries):
        config = GskewConfig(bank_entries=entries)
        new = TwoBcGskew(config)
        ref = _RefGskew(config)

        def check_state():
            assert [new._bim, new._g0, new._g1, new._meta] == ref.banks()

        rng = random.Random(entries)
        pcs = [rng.randrange(1 << 18) * 4 for _ in range(300)]
        _drive(new, ref, 20_000, entries, pcs, 15, check_state)
        banks = [new._bim, new._g0, new._g1, new._meta]
        assert all(0 <= v <= 3 for bank in banks for v in bank)
        assert {0, 3} <= set(new._bim) and {0, 3} <= set(new._meta)


class TestBTBReference:
    @pytest.mark.parametrize("geometry", [(16, 4), (8, 2), (64, 1)])
    def test_matches_the_method_reference(self, geometry):
        """Lookups and updates, taken and not, over a BTB small enough
        to evict: equal entries (tag, target, kind, counter) in equal
        LRU order, and equal counters."""
        entries, assoc = geometry
        new = BranchTargetBuffer(entries, assoc)
        ref = _RefBTB(entries, assoc)
        rng = random.Random(entries * 7 + assoc)
        pcs = [rng.randrange(1 << 12) * 4 for _ in range(40)]
        kinds = (BranchKind.COND, BranchKind.JUMP, BranchKind.IND,
                 BranchKind.RET)

        def view(btb):
            return ([[(e.tag, e.target, e.kind, e.counter) for e in ways]
                     for ways in btb._sets],
                    (btb.lookups, btb.misses, btb.allocations,
                     btb.evictions))

        counters = set()
        for step in range(20_000):
            pc = rng.choice(pcs)
            if rng.random() < 0.5:
                got, want = new.lookup(pc), ref.lookup(pc)
                assert (got is None) == (want is None), step
                if got is not None:
                    assert (got.tag, got.target, got.kind, got.counter) == (
                        want.tag, want.target, want.kind, want.counter)
            else:
                args = (pc, rng.randrange(1 << 12) * 4, rng.choice(kinds),
                        rng.random() < 0.6)
                new.update(*args)
                ref.update(*args)
            if step % 250 == 0:
                assert view(new) == view(ref), step
                counters.update(e.counter for ways in new._sets
                                for e in ways)
        assert view(new) == view(ref)
        assert counters == {0, 1, 2, 3}
        assert new.evictions > 0


class TestGskewCounters:
    """The 2-bit counter rules, on the banks of a 64-entry predictor.

    ``info`` is the prediction-time view an update trains with; these
    tests hand-build it so that a counter's current value and the
    prediction recorded for it can differ, as they do in a pipeline.
    """

    @staticmethod
    def _indices(gskew, pc=0x1000):
        return gskew.predict(pc, 0)[1][:4]

    def test_saturates_up(self):
        g = TwoBcGskew(GskewConfig(bank_entries=64))
        bim_i, g0_i, g1_i, meta_i = self._indices(g)
        g._bim[bim_i] = g._g0[g0_i] = g._g1[g1_i] = 3
        # A recorded not-taken prediction: a misprediction trains up.
        g.update((bim_i, g0_i, g1_i, meta_i, False, False), True)
        assert (g._bim[bim_i], g._g0[g0_i], g._g1[g1_i]) == (3, 3, 3)

    def test_saturates_down(self):
        g = TwoBcGskew(GskewConfig(bank_entries=64))
        bim_i, g0_i, g1_i, meta_i = self._indices(g)
        g._bim[bim_i] = g._g0[g0_i] = g._g1[g1_i] = 0
        g.update((bim_i, g0_i, g1_i, meta_i, True, True), False)
        assert (g._bim[bim_i], g._g0[g0_i], g._g1[g1_i]) == (0, 0, 0)

    def test_hysteresis(self):
        g = TwoBcGskew(GskewConfig(bank_entries=64))
        bim_i, g0_i, g1_i, meta_i = self._indices(g)
        g._bim[bim_i] = 0
        not_taken = (bim_i, g0_i, g1_i, meta_i, False, False)
        g.update(not_taken, True)   # 1 — still predicts NT
        assert g._bim[bim_i] < 2
        g.update(not_taken, True)   # 2 — now predicts taken
        assert g._bim[bim_i] >= 2
        g.update((bim_i, g0_i, g1_i, meta_i, True, True), False)
        assert g._bim[bim_i] < 2    # 2 -> 1: one NT flips a weak state

    def test_learns_direction(self):
        g = TwoBcGskew(GskewConfig(bank_entries=64))
        for _ in range(4):
            _, info = g.predict(0x1000, 0)
            g.update(info, True)
        assert g._bim[info[0]] == 3
        assert g.predict(0x1000, 0)[0]

    def test_strengthen_only_reinforces(self):
        g = TwoBcGskew(GskewConfig(bank_entries=64))
        bim_i, g0_i, g1_i, meta_i = self._indices(g)
        g._bim[bim_i] = 1  # weakly NT
        # A correct taken prediction with the bimodal side recorded as
        # taken: the counter disagrees now, so it does not change.
        g.update((bim_i, g0_i, g1_i, meta_i, True, True), True)
        assert g._bim[bim_i] == 1
        # A correct not-taken prediction: it agrees, strengthen to 0.
        g.update((bim_i, g0_i, g1_i, meta_i, False, False), False)
        assert g._bim[bim_i] == 0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            TwoBcGskew(GskewConfig(bank_entries=12))

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 2**15 - 1),
                              st.booleans()),
                    max_size=300))
    def test_property_counters_in_range(self, updates):
        g = TwoBcGskew(GskewConfig(bank_entries=64))
        for index, history, taken in updates:
            _, info = g.predict(0x1000 + 4 * index, history)
            g.update(info, taken)
            for bank in (g._bim, g._g0, g._g1, g._meta):
                assert all(0 <= v <= 3 for v in bank)
