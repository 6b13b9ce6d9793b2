"""Branch prediction substrate shared by the fetch architectures."""

from repro.branch.history import HistoryRegister, PathHistory
from repro.branch.btb import BranchTargetBuffer, BTBEntry
from repro.branch.ras import ReturnAddressStack
from repro.branch.twobcgskew import TwoBcGskew
from repro.branch.perceptron import PerceptronPredictor

__all__ = [
    "HistoryRegister",
    "PathHistory",
    "BranchTargetBuffer",
    "BTBEntry",
    "ReturnAddressStack",
    "TwoBcGskew",
    "PerceptronPredictor",
]
