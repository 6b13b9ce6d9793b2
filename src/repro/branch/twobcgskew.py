"""The 2bcgskew hybrid predictor of the Alpha EV8 (Seznec et al., 2002).

Four banks of 2-bit counters (Table 2: 4 x 32K entries, 15-bit history):

* **BIM** — a bimodal bank indexed by PC only;
* **G0** — e-gskew bank with a short slice of global history;
* **G1** — e-gskew bank with the full 15-bit global history;
* **META** — chooses between the bimodal prediction and the e-gskew
  majority vote of (BIM, G0, G1).

The *partial update* policy follows the EV8 paper: on a correct
prediction only the agreeing banks are strengthened (and META only when
the two predictions disagreed); on a misprediction META is steered
toward whichever side was right, and all three direction banks are
trained with the actual outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.common.hashing import fold_xor


@dataclass(frozen=True)
class GskewConfig:
    """Geometry of the 2bcgskew predictor."""

    bank_entries: int = 32 * 1024
    history_bits: int = 15
    short_history_bits: int = 7


#: Opaque per-prediction data carried to the commit-time update:
#: (bim_index, g0_index, g1_index, meta_index, pred_bim, pred_eskew)
PredictionInfo = Tuple[int, int, int, int, bool, bool]


class TwoBcGskew:
    """EV8's conditional branch direction predictor."""

    def __init__(self, config: GskewConfig | None = None) -> None:
        self.config = config or GskewConfig()
        entries = self.config.bank_entries
        if entries < 1 or entries & (entries - 1):
            raise ValueError("bank_entries must be a power of two")
        # Each bank is a plain list of 2-bit counters (0..3, >= 2
        # predicts taken), indexed by the bank-masked indices predict()
        # computes.
        self._bim = [1] * entries
        self._g0 = [1] * entries
        self._g1 = [1] * entries
        self._meta = [2] * entries  # slight e-gskew bias
        self._index_bits = entries.bit_length() - 1
        self._fold_limit = 1 << (4 * self._index_bits)
        self._h0_mask = (1 << self.config.short_history_bits) - 1
        self._h1_mask = (1 << self.config.history_bits) - 1

    # ------------------------------------------------------------------
    def predict(self, pc: int, history: int) -> Tuple[bool, PredictionInfo]:
        """Predict the direction; returns (taken?, info-for-update).

        The four bank indices are computed inline (this runs once per
        fetched conditional): fold_xor is unrolled to four fold windows,
        identical to the loop for any operand below 2^(4*index_bits) —
        which covers every realistic program address — and each bank
        uses a distinct skewing function so one aliasing collision does
        not strike all banks at once.
        """
        word = pc >> 2
        bits = self._index_bits
        b2 = 2 * bits
        b3 = 3 * bits
        mask = (1 << bits) - 1
        limit = self._fold_limit
        v = word
        if v < limit:
            bim_i = (v ^ (v >> bits) ^ (v >> b2) ^ (v >> b3)) & mask
        else:  # pragma: no cover - beyond any simulated image
            bim_i = fold_xor(v, bits)
        v = word ^ ((history & self._h0_mask) << 5) ^ (word << 2)
        if v < limit:
            g0_i = (v ^ (v >> bits) ^ (v >> b2) ^ (v >> b3)) & mask
        else:  # pragma: no cover
            g0_i = fold_xor(v, bits)
        h1 = history & self._h1_mask
        v = word ^ (h1 << 3) ^ (word << 7)
        if v < limit:
            g1_i = (v ^ (v >> bits) ^ (v >> b2) ^ (v >> b3)) & mask
        else:  # pragma: no cover
            g1_i = fold_xor(v, bits)
        v = word ^ (h1 << 9) ^ (word << 4)
        if v < limit:
            meta_i = (v ^ (v >> bits) ^ (v >> b2) ^ (v >> b3)) & mask
        else:  # pragma: no cover
            meta_i = fold_xor(v, bits)

        p_bim = self._bim[bim_i] >= 2
        p_g0 = self._g0[g0_i] >= 2
        p_g1 = self._g1[g1_i] >= 2
        p_eskew = (p_bim + p_g0 + p_g1) >= 2
        prediction = p_eskew if self._meta[meta_i] >= 2 else p_bim
        return prediction, (bim_i, g0_i, g1_i, meta_i, p_bim, p_eskew)

    def update(self, info: PredictionInfo, taken: bool) -> None:
        """Commit-time update with the EV8 partial-update policy.

        The counter steps act on the bank lists in place: training moves
        a counter one step toward an outcome, saturating at 0 and 3;
        strengthening moves it only if it already predicts the outcome
        (2 -> 3 toward taken, 1 -> 0 toward not taken).
        """
        bim_i, g0_i, g1_i, meta_i, p_bim, p_eskew = info
        meta = self._meta
        use_eskew = meta[meta_i] >= 2
        if p_bim != p_eskew:
            # Steer the chooser toward whichever side was right (on a
            # correct prediction, the side it chose).
            end, step = (3, 1) if p_eskew == taken else (0, -1)
            if meta[meta_i] != end:
                meta[meta_i] += step
        bim = self._bim
        g0 = self._g0
        g1 = self._g1

        if (p_eskew if use_eskew else p_bim) == taken:
            # Correct: strengthen only the agreeing banks.
            strong, weak = (3, 2) if taken else (0, 1)
            if p_bim == taken and bim[bim_i] == weak:
                bim[bim_i] = strong
            if use_eskew or p_bim != taken:
                if g0[g0_i] == weak:
                    g0[g0_i] = strong
                if g1[g1_i] == weak:
                    g1[g1_i] = strong
            return

        # Misprediction: train all direction banks with the outcome.
        end, step = (3, 1) if taken else (0, -1)
        if bim[bim_i] != end:
            bim[bim_i] += step
        if g0[g0_i] != end:
            g0[g0_i] += step
        if g1[g1_i] != end:
            g1[g1_i] += step
