"""Branch prediction: hybrid PA/g predictor, BTB, and return-address stack.

Figure 1 of the paper: conditional branches use a hybrid predictor
combining PA(4K, 12, 1) (per-address, 4K-entry history table with 12-bit
local histories) and g(12, 12) (GShare-style global, 12-bit history) with a
choice table (Yeh & Patt [26]); computed jumps use a 512-entry 4-way BTB;
call/returns use a 32-element return-address stack.

The simulator is trace-driven so actual outcomes are known at prediction
time; the predictor still runs for real to produce realistic misprediction
rates (the paper reports a cumulative 11% for OLTP).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List

from repro.params import BranchPredictorParams
from repro.trace.instr import BR_CALL, BR_COND, BR_JUMP, BR_RETURN


def _counter_update(counter: int, taken: bool) -> int:
    """Saturating 2-bit counter."""
    if taken:
        return min(3, counter + 1)
    return max(0, counter - 1)


class BranchPredictor:
    """Hybrid PA/g + BTB + RAS.  ``observe`` predicts, trains, and reports
    whether the (known) outcome was mispredicted."""

    def __init__(self, params: BranchPredictorParams):
        self.params = params
        p = params
        self._pa_hist: List[int] = [0] * p.pa_table_entries
        self._pa_mask = (1 << p.pa_history_bits) - 1
        self._pa_pht: List[int] = [2] * (1 << p.pa_history_bits)
        self._g_hist = 0
        self._g_mask = (1 << p.global_history_bits) - 1
        self._g_pht: List[int] = [2] * (1 << p.global_history_bits)
        self._choice: List[int] = [2] * p.choice_entries
        self._btb: "OrderedDict[int, int]" = OrderedDict()
        self._ras: List[int] = []
        self.predictions = 0
        self.mispredictions = 0

    # -- conditional direction ------------------------------------------------

    def _predict_cond(self, pc: int, taken: bool) -> bool:
        """Returns True if the direction was predicted correctly."""
        p = self.params
        pa_index = (pc >> 2) % p.pa_table_entries
        hist = self._pa_hist[pa_index]
        pa_pred = self._pa_pht[hist] >= 2
        g_index = (self._g_hist ^ (pc >> 2)) & self._g_mask
        g_pred = self._g_pht[g_index] >= 2
        choice_index = (pc >> 2) % p.choice_entries
        use_pa = self._choice[choice_index] >= 2
        prediction = pa_pred if use_pa else g_pred

        # Train.
        self._pa_pht[hist] = _counter_update(self._pa_pht[hist], taken)
        self._pa_hist[pa_index] = ((hist << 1) | taken) & self._pa_mask
        self._g_pht[g_index] = _counter_update(self._g_pht[g_index], taken)
        self._g_hist = ((self._g_hist << 1) | taken) & self._g_mask
        if pa_pred != g_pred:
            self._choice[choice_index] = _counter_update(
                self._choice[choice_index], pa_pred == taken)
        return prediction == taken

    # -- BTB / RAS ---------------------------------------------------------------

    def _btb_lookup_update(self, pc: int, target: int) -> bool:
        """4-way pseudo-LRU BTB modelled as a bounded LRU map."""
        hit = self._btb.get(pc)
        correct = hit == target
        self._btb[pc] = target
        self._btb.move_to_end(pc)
        if len(self._btb) > self.params.btb_entries:
            self._btb.popitem(last=False)
        return correct

    # -- public API -----------------------------------------------------------------

    def observe(self, pc: int, kind: int, taken: bool, target: int) -> bool:
        """Process one branch; returns True if it was MISpredicted."""
        self.predictions += 1
        if self.params.perfect:
            return False
        if kind == BR_COND:
            correct = self._predict_cond(pc, taken)
            # Taken conditionals also need the target; direct targets are
            # available at decode, so direction decides correctness.
        elif kind == BR_JUMP:
            correct = self._btb_lookup_update(pc, target)
        elif kind == BR_CALL:
            correct = self._btb_lookup_update(pc, target)
            self._ras.append(pc + 4)
            if len(self._ras) > self.params.ras_entries:
                self._ras.pop(0)
        else:  # BR_RETURN
            predicted = self._ras.pop() if self._ras else -1
            correct = predicted == target
        if not correct:
            self.mispredictions += 1
        return not correct

    @property
    def misprediction_rate(self) -> float:
        if not self.predictions:
            return 0.0
        return self.mispredictions / self.predictions
