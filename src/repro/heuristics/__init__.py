"""Data-transfer ordering heuristics (Sections 4.1-4.4 of the paper)."""

from .base import PAPER_FIGURE_ORDER, TABLE6_HEURISTICS, Category, Heuristic, HeuristicInfo
from .baselines import BinPackingFirstFit, GilmoreGomory, first_fit_bins
from .corrected import (
    CorrectedHeuristic,
    CorrectedLargestCommunication,
    CorrectedMaximumAcceleration,
    CorrectedSmallestCommunication,
)
from .dynamic import (
    DynamicHeuristic,
    LargestCommunicationFirst,
    MaximumAccelerationFirst,
    SmallestCommunicationFirst,
)
from .static import (
    DecreasingCommPlusComp,
    DecreasingComputation,
    IncreasingCommPlusComp,
    IncreasingCommunication,
    OptimalOrderInfiniteMemory,
    OrderOfSubmission,
    StaticOrderHeuristic,
)

__all__ = [
    "Category",
    "Heuristic",
    "HeuristicInfo",
    "StaticOrderHeuristic",
    "DynamicHeuristic",
    "CorrectedHeuristic",
    "OrderOfSubmission",
    "OptimalOrderInfiniteMemory",
    "IncreasingCommunication",
    "DecreasingComputation",
    "IncreasingCommPlusComp",
    "DecreasingCommPlusComp",
    "GilmoreGomory",
    "BinPackingFirstFit",
    "LargestCommunicationFirst",
    "SmallestCommunicationFirst",
    "MaximumAccelerationFirst",
    "CorrectedLargestCommunication",
    "CorrectedSmallestCommunication",
    "CorrectedMaximumAcceleration",
    "PAPER_FIGURE_ORDER",
    "TABLE6_HEURISTICS",
    "first_fit_bins",
]
