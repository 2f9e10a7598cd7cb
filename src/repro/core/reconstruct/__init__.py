"""Timeline reconstruction: stitching plus round averaging (paper §3.2).

:mod:`repro.core.reconstruct.base` holds the convergence loop,
:mod:`~repro.core.reconstruct.stitchers` the incremental overlap-ratio
stitcher that batch and streaming share, and
:mod:`~repro.core.reconstruct.averagers` the running-mean accumulator.
"""

from repro.core.reconstruct.averagers import RunningMeanAccumulator
from repro.core.reconstruct.base import Averager
from repro.core.reconstruct.stitchers import OverlapRatioStitcher

__all__ = [
    "Averager",
    "OverlapRatioStitcher",
    "RunningMeanAccumulator",
]
