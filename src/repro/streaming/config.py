"""Configuration for the streaming study daemon.

Kept import-free of the rest of ``repro`` so the runtime layer can
embed a :class:`StreamConfig` inside ``RuntimeConfig`` without pulling
the daemon (and through it the whole pipeline) into its import graph —
``repro.streaming`` proper loads lazily.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True, slots=True)
class StreamConfig:
    """How the daemon paces ingest, publishing, and persistence.

    ``rounds`` fixes how many sample rounds each newly arrived weekly
    frame is fetched for at its tick.  Batch SIFT decides rounds
    adaptively (fetch until the spike set converges), which a streaming
    ingest cannot replay — it sees one new frame per tick, not a whole
    round.  ``None`` derives the count from the study's
    ``AveragingConfig`` and requires ``min_rounds == max_rounds``;
    byte-identity with the batch pipeline holds exactly under that
    fixed-round configuration.
    """

    rounds: int | None = None
    #: Persist resumable stream state every N ticks (0 disables).
    checkpoint_every: int = 1

    def __post_init__(self) -> None:
        if self.rounds is not None and self.rounds < 1:
            raise ValueError(f"rounds must be positive: {self.rounds}")
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0: {self.checkpoint_every}"
            )
