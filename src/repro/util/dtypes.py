"""Column dtype contracts for the event hot path.

Every event-timestamp column in the pipeline is ``np.int64`` cycles and
every window-count column is ``np.int64`` events, as the taps' window
readers (``repro.sim.events``) return them. The columnar hot path hands
arrays between layers zero-copy, so a stray ``int32`` (e.g. from a
compact trace archive) or a float column would silently change
downstream arithmetic instead of failing at the boundary. These helpers
make mixed-dtype columns fail loudly at the layer seam where the column
enters.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DetectionError


def require_int64(arr: np.ndarray, what: str) -> np.ndarray:
    """Assert ``arr`` is an int64 ndarray and return it unchanged.

    Used where a column is passed along zero-copy: the producer is
    responsible for the dtype, and a mismatch is a producer bug worth
    surfacing, not papering over with a cast.
    """
    if not isinstance(arr, np.ndarray) or arr.dtype != np.int64:
        got = arr.dtype if isinstance(arr, np.ndarray) else type(arr).__name__
        raise DetectionError(
            f"{what} must be an int64 column, got {got}"
        )
    return arr


def ensure_int64(values, what: str) -> np.ndarray:
    """Cast integer-kind input to an int64 column; reject inexact input.

    Python lists and narrower integer arrays are widened (a lossless,
    intentional conversion — e.g. compact int32 trace archives being
    rehydrated); float/complex input raises instead of silently
    truncating.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in ("i", "u", "b"):
        raise DetectionError(
            f"{what} must hold integers, got dtype {arr.dtype}"
        )
    return arr.astype(np.int64, copy=False)
