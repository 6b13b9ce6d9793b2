"""The perceptron branch predictor (Jimenez & Lin, HPCA 2001).

Table 2 pairs the FTB front-end with a perceptron predictor: 512
perceptrons, 40 bits of global history, and a 4096-entry x 14-bit local
history table.  Each perceptron holds one weight per history bit (global
+ local) plus a bias weight; the prediction is the sign of the dot
product between the weights and the +1/-1 encoded history.

Training (on mispredictions, or whenever the output magnitude is below
the threshold) adds the correlation of each history bit with the actual
outcome to the corresponding weight, saturating at 8-bit range.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from typing import List, Tuple


@dataclass(frozen=True)
class PerceptronConfig:
    num_perceptrons: int = 512
    global_history_bits: int = 40
    local_table_entries: int = 4096
    local_history_bits: int = 14
    weight_min: int = -128
    weight_max: int = 127

    @property
    def num_inputs(self) -> int:
        return self.global_history_bits + self.local_history_bits

    @property
    def threshold(self) -> int:
        # Jimenez & Lin's empirically optimal training threshold.
        return int(1.93 * self.num_inputs + 14)


#: (perceptron index, local table index, input bits, output) for update.
PredictionInfo = Tuple[int, int, int, int]

#: The 8 bits of each byte value, least significant first: unpacks an
#: input vector for ``itertools.compress`` a byte at a time.
_BYTE_BITS = tuple(tuple((b >> i) & 1 for i in range(8)) for b in range(256))


class PerceptronPredictor:
    """A global+local perceptron direction predictor."""

    def __init__(self, config: PerceptronConfig | None = None) -> None:
        self.config = config or PerceptronConfig()
        cfg = self.config
        if cfg.num_perceptrons & (cfg.num_perceptrons - 1):
            raise ValueError("num_perceptrons must be a power of two")
        if cfg.local_table_entries & (cfg.local_table_entries - 1):
            raise ValueError("local_table_entries must be a power of two")
        n = cfg.num_inputs
        self._weights: List[List[int]] = [
            [0] * (n + 1) for _ in range(cfg.num_perceptrons)
        ]
        self._local: List[int] = [0] * cfg.local_table_entries
        self._local_mask = (1 << cfg.local_history_bits) - 1
        # Sum of the non-bias weights per perceptron, maintained by
        # update(): lets predict() visit only the *set* history bits
        # (y = bias - wsum + 2 * sum of weights at set bits).
        self._wsum: List[int] = [0] * cfg.num_perceptrons
        # Memoized dot products: the output for a given input vector is
        # fixed until the perceptron trains, so (perceptron, training
        # epoch, inputs) -> y is exact.  Loopy codes re-see the same
        # history vectors constantly between trainings.
        self._epoch: List[int] = [0] * cfg.num_perceptrons
        self._y_memo: dict = {}
        # Config-derived constants, hoisted off the per-update path
        # (``threshold`` is a computed property — float math per call).
        self._threshold = cfg.threshold
        self._n_inputs = cfg.num_inputs
        # Bytes of ``bits << 1``: the weights plus the bias's slot.
        self._n_bytes = (cfg.num_inputs + 8) // 8
        self._wmin = cfg.weight_min
        self._wmax = cfg.weight_max
        self._pidx_mask = cfg.num_perceptrons - 1
        self._lidx_mask = cfg.local_table_entries - 1
        self._ghist_mask = (1 << cfg.global_history_bits) - 1
        self._lh_bits = cfg.local_history_bits

    # ------------------------------------------------------------------
    def _inputs(self, pc: int, global_history: int) -> Tuple[int, int, int]:
        cfg = self.config
        pidx = (pc >> 2) & (cfg.num_perceptrons - 1)
        lidx = (pc >> 2) & (cfg.local_table_entries - 1)
        ghist = global_history & ((1 << cfg.global_history_bits) - 1)
        bits = (ghist << cfg.local_history_bits) | self._local[lidx]
        return pidx, lidx, bits

    def predict(self, pc: int, global_history: int) -> Tuple[bool, PredictionInfo]:
        # _inputs(), inlined: this runs once per fetched conditional.
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
            # Dot product over +1/-1 inputs, summing only the set bits:
            # y = bias + sum(w_i for set i) - sum(w_i for clear i)
            #   = bias - wsum + 2 * sum(w_i for set i).
            # Input bit i pairs with weights[i + 1]: shifting the inputs
            # left by one lines the bias up against a 0.
            s = sum(compress(weights, chain.from_iterable(map(
                _BYTE_BITS.__getitem__,
                (bits << 1).to_bytes(self._n_bytes, "little"),
            ))))
            y = weights[0] - self._wsum[pidx] + 2 * s
            if len(memo) > (1 << 16):  # deterministic bound
                memo.clear()
            memo[key] = y
        return y >= 0, (pidx, lidx, bits, y)

    # ------------------------------------------------------------------
    def update(self, info: PredictionInfo, taken: bool) -> None:
        """Train at commit; also shifts the branch's local history."""
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
            # The loop above visited every non-bias weight, so the
            # cached sum (see predict()) falls out of it for free;
            # advance the training epoch so memoized outputs expire.
            self._wsum[pidx] = s
            self._epoch[pidx] += 1
        # Local history is maintained non-speculatively (commit order).
        self._local[lidx] = ((self._local[lidx] << 1) | int(taken)) & self._local_mask
