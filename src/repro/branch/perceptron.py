"""The perceptron branch predictor (Jimenez & Lin, HPCA 2001).

Table 2 pairs the FTB front-end with a perceptron predictor: 512
perceptrons, 40 bits of global history, and a 4096-entry x 14-bit local
history table.  Each perceptron holds one weight per history bit (global
+ local) plus a bias weight; the prediction is the sign of the dot
product between the weights and the +1/-1 encoded history.

Training (on mispredictions, or whenever the output magnitude is below
the threshold) adds the correlation of each history bit with the actual
outcome to the corresponding weight, saturating at 8-bit range.

Packed weights
--------------
Each perceptron keeps its n non-bias weights in one int of n fields,
F bits each: field i holds ``w_i - weight_min``, a value in
``0..span`` (``span = weight_max - weight_min``).  F is the smallest
width with ``n * span < 2**F - 1`` and a spare top bit per field
(``span < 2**(F-1)``).

* **Dot product.**  Since ``2**F`` is 1 modulo ``2**F - 1``, an int's
  fields sum to the int itself modulo ``2**F - 1``, and the sum is
  exact because it stays below the modulus.  An input vector selects
  its set bits' fields with one AND against a mask of all-ones fields,
  assembled from one 256-entry table per input byte (built once per
  geometry, by the first predictor of that geometry).  With k set
  inputs and S the sum of the selected fields, the weights at set
  inputs sum to ``S + k * weight_min``, and
  ``y = base + 2 * (S + k * weight_min)``, where ``base``, kept per
  perceptron, is the output for the all-clear input vector (the bias
  less every other weight).  A prediction costs one AND, one ``%`` and
  one ``bit_count``.
* **Saturation.**  Training adds +1 to the weights whose input agrees
  with the outcome (set and taken, or clear and not taken) and -1 to
  the rest, as one add and one subtract of a ones-per-field int.
  Adding ``2**(F-1) - span`` to every field carries into a field's top
  bit exactly when it holds ``span``, and adding ``2**(F-1) - 1``
  exactly when it holds more than 0; those top bits, shifted down,
  mask the increments and decrements that would leave the range.  No
  field overflows into the next.
* **No memo.**  An output is fixed until its perceptron trains, so it
  could be memoized per (perceptron, training epoch, input vector),
  but input vectors rarely repeat between trainings (on the perfbench
  steady_sim cells, 8% of predictions would hit), and a packed dot
  product costs less than the key, probe and insert a memo needs.

Results are those of the textbook loop over every input bit:
``weights(pidx)`` unpacks a perceptron for inspection and
``set_weights`` packs one back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple


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


@lru_cache(maxsize=None)
def _mask_tables(n_inputs: int, field_bits: int) -> Tuple[List[int], ...]:
    """The field-select tables of one geometry, built on first use and
    shared (read-only) by its predictors: ``tables[j][b]`` has all-ones
    fields at the inputs whose bits are set in ``b``, the value of
    input byte ``j``."""
    full = (1 << field_bits) - 1
    byte0 = [0] * 256
    for b in range(1, 256):
        low = b & -b
        byte0[b] = byte0[b ^ low] | (
            full << (field_bits * (low.bit_length() - 1)))
    return tuple([m << (8 * field_bits * j) for m in byte0]
                 for j in range((n_inputs + 7) // 8))


class PerceptronPredictor:
    """A global+local perceptron direction predictor."""

    def __init__(self, config: PerceptronConfig | None = None) -> None:
        self.config = config or PerceptronConfig()
        cfg = self.config
        if cfg.num_perceptrons & (cfg.num_perceptrons - 1):
            raise ValueError("num_perceptrons must be a power of two")
        if cfg.local_table_entries & (cfg.local_table_entries - 1):
            raise ValueError("local_table_entries must be a power of two")
        if not cfg.weight_min <= 0 <= cfg.weight_max:
            raise ValueError("the weight range must hold 0, the initial weight")
        n = cfg.num_inputs
        span = cfg.weight_max - cfg.weight_min
        field = max((n * span + 1).bit_length(), span.bit_length() + 1)
        self._field_bits = field
        self._modulus = (1 << field) - 1
        # One 1 per field, and the per-field carry addends.
        self._ones = ((1 << (field * n)) - 1) // self._modulus
        self._tops = self._ones << (field - 1)
        self._at_max = self._ones * ((1 << (field - 1)) - span)
        self._above_min = self._ones * ((1 << (field - 1)) - 1)
        self._tables = _mask_tables(n, field)
        self._n_bytes = len(self._tables)
        # The packed non-bias weights, and the all-clear output (the
        # bias less the other weights), per perceptron.  All weights
        # start at 0: every field holds -weight_min and the output is 0.
        self._packed: List[int] = [-cfg.weight_min * self._ones] * cfg.num_perceptrons
        self._base: List[int] = [0] * cfg.num_perceptrons
        self._local: List[int] = [0] * cfg.local_table_entries
        self._local_mask = (1 << cfg.local_history_bits) - 1
        # Config-derived constants, hoisted off the per-update path
        # (``threshold`` is a computed property — float math per call).
        self._threshold = cfg.threshold
        self._n_inputs = n
        # The non-bias weight sum a packed int of all-zero fields holds.
        self._min_sum = n * cfg.weight_min
        self._wmin = cfg.weight_min
        self._wmax = cfg.weight_max
        self._pidx_mask = cfg.num_perceptrons - 1
        self._lidx_mask = cfg.local_table_entries - 1
        self._ghist_mask = (1 << cfg.global_history_bits) - 1
        self._lh_bits = cfg.local_history_bits

    # ------------------------------------------------------------------
    def predict(self, pc: int, global_history: int) -> Tuple[bool, PredictionInfo]:
        word = pc >> 2
        pidx = word & self._pidx_mask
        lidx = word & self._lidx_mask
        bits = (((global_history & self._ghist_mask) << self._lh_bits)
                | self._local[lidx])
        # The fields are disjoint, so the byte masks' sum is their OR.
        select = sum(map(list.__getitem__, self._tables,
                         bits.to_bytes(self._n_bytes, "little")))
        y = self._base[pidx] + 2 * (
            (self._packed[pidx] & select) % self._modulus
            + self._wmin * bits.bit_count())
        return y >= 0, (pidx, lidx, bits, y)

    # ------------------------------------------------------------------
    def update(self, info: PredictionInfo, taken: bool) -> None:
        """Train at commit; also shifts the branch's local history."""
        pidx, lidx, bits, y = info
        if (y >= 0) != taken or abs(y) <= self._threshold:
            packed = self._packed[pidx]
            ones = self._ones
            total = packed % self._modulus
            bias = self._base[pidx] + total + self._min_sum
            agree = sum(map(list.__getitem__, self._tables,
                            bits.to_bytes(self._n_bytes, "little"))) & ones
            if taken:
                if bias < self._wmax:
                    bias += 1
                up = agree
                down = ones ^ agree
            else:
                if bias > self._wmin:
                    bias -= 1
                up = ones ^ agree
                down = agree
            # Saturation: no +1 on a field at the top of the range, no
            # -1 on one at the bottom (see the module docstring).
            shift = self._field_bits - 1
            tops = self._tops
            up &= ~(((packed + self._at_max) & tops) >> shift)
            down &= ((packed + self._above_min) & tops) >> shift
            self._packed[pidx] = packed + up - down
            self._base[pidx] = (bias - self._min_sum - total
                                - up.bit_count() + down.bit_count())
        # Local history is maintained non-speculatively (commit order).
        self._local[lidx] = ((self._local[lidx] << 1) | int(taken)) & self._local_mask

    # ------------------------------------------------------------------
    def weights(self, pidx: int) -> List[int]:
        """Perceptron ``pidx``'s weights, bias first, unpacked."""
        packed = self._packed[pidx]
        field = self._field_bits
        rest = [((packed >> (field * i)) & self._modulus) + self._wmin
                for i in range(self._n_inputs)]
        return [self._base[pidx] + sum(rest)] + rest

    def set_weights(self, pidx: int, weights: Sequence[int]) -> None:
        """Pack ``weights`` (bias first) into perceptron ``pidx``."""
        if len(weights) != self._n_inputs + 1:
            raise ValueError("one weight per input, plus the bias")
        if not all(self._wmin <= w <= self._wmax for w in weights):
            raise ValueError("weight out of range")
        field = self._field_bits
        packed = 0
        for i, w in enumerate(weights[1:]):
            packed |= (w - self._wmin) << (field * i)
        self._packed[pidx] = packed
        self._base[pidx] = weights[0] - sum(weights[1:])
