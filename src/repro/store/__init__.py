"""The study checkpoint: a partitioned, memory-mapped columnar store.

:class:`ColumnarStore` is the one format per-geography study results
persist in — checkpoint and resume, stream checkpoints, integrity
digests and quarantine, and zero-copy serving.  ``repro.store``
deliberately imports only :mod:`repro.core` — the runtime layer builds
on the store, never the reverse.
"""

from repro.store.columnar import FORMAT, MANIFEST, SERIES_DIR, ColumnarStore
from repro.store.integrity import (
    PartitionDamage,
    StoreVerification,
    digest_file,
    fsync_directory,
)

__all__ = [
    "FORMAT",
    "MANIFEST",
    "SERIES_DIR",
    "ColumnarStore",
    "PartitionDamage",
    "StoreVerification",
    "digest_file",
    "fsync_directory",
]
