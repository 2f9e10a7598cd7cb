"""SIFT core: the paper's primary contribution.

Processing (stitching + averaging), detection (prominence walk),
and analysis (area grouping + context annotation), orchestrated by
:class:`repro.core.pipeline.Sift`.
"""

from repro.core.area import AreaConfig, Outage, footprint_distribution, group_outages, most_extensive
from repro.core.averaging import (
    AveragingConfig,
    AveragingResult,
    MissingFrame,
    average_until_convergence,
)
from repro.core.context import (
    ContextConfig,
    HeavyHitterAnalyzer,
    RankedSuggestion,
    SpikeAnnotator,
    rank_suggestions,
)
from repro.core.detection import DetectionConfig, SpikeBounds, detect_bounds, detect_spikes
from repro.core.nlp import PhraseClusterer, phrase_similarity, tokenize
from repro.core.pipeline import (
    FrameSource,
    RisingCache,
    Sift,
    SiftConfig,
    StateResult,
    StudyCheckpoint,
    StudyResult,
)
from repro.core.reconstruct import Averager, OverlapRatioStitcher
from repro.core.progress import (
    FaultStats,
    FramesDropped,
    ProgressEvent,
    ProgressListener,
    ProgressLog,
    text_listener,
)
from repro.core.series import HourlyTimeline
from repro.core.spikes import Spike, SpikeSet
from repro.core.stitching import StitchReport, estimate_ratio, naive_concatenation, stitch_frames

__all__ = [
    "AreaConfig",
    "Averager",
    "AveragingConfig",
    "AveragingResult",
    "ContextConfig",
    "DetectionConfig",
    "FaultStats",
    "FrameSource",
    "FramesDropped",
    "HeavyHitterAnalyzer",
    "HourlyTimeline",
    "MissingFrame",
    "Outage",
    "OverlapRatioStitcher",
    "PhraseClusterer",
    "ProgressEvent",
    "ProgressListener",
    "ProgressLog",
    "RankedSuggestion",
    "RisingCache",
    "Sift",
    "SiftConfig",
    "Spike",
    "SpikeBounds",
    "SpikeSet",
    "SpikeAnnotator",
    "StateResult",
    "StitchReport",
    "StudyCheckpoint",
    "StudyResult",
    "average_until_convergence",
    "detect_bounds",
    "detect_spikes",
    "estimate_ratio",
    "footprint_distribution",
    "group_outages",
    "most_extensive",
    "naive_concatenation",
    "phrase_similarity",
    "rank_suggestions",
    "stitch_frames",
    "text_listener",
    "tokenize",
]
