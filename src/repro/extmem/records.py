"""The key–value record layout for suffix/prefix fingerprints.

A record is ``(key, [aux,] val)``:

* ``key``  — the primary packed fingerprint (``uint64``); the only field
  sorting and searching look at,
* ``aux``  — the second packed fingerprint lane (present when the scheme
  uses ``lanes=2``); an equality filter at match time,
* ``val``  — the vertex id (``uint32``): ``read_id << 1 | orientation``.

With one lane a record is 12 bytes; with two it is 20 bytes — the width of
the paper's (128-bit fingerprint, 32-bit read-id) pairs, which is what makes
the scaled disk-pass counts line up with Tables II/III.
"""

from __future__ import annotations

import numpy as np

from ..device.kernels import KEY_FIELD
from ..errors import ConfigError

AUX_FIELD = "aux"
VAL_FIELD = "val"


def kv_dtype(lanes: int = 1) -> np.dtype:
    """The packed structured dtype for ``lanes`` fingerprint lanes."""
    if lanes == 1:
        return np.dtype([(KEY_FIELD, "<u8"), (VAL_FIELD, "<u4")])
    if lanes == 2:
        return np.dtype([(KEY_FIELD, "<u8"), (AUX_FIELD, "<u8"), (VAL_FIELD, "<u4")])
    raise ConfigError("kv_dtype supports 1 or 2 lanes")


def make_records(keys: np.ndarray, vals: np.ndarray,
                 aux: np.ndarray | None = None) -> np.ndarray:
    """Assemble columns into a packed record array."""
    lanes = 1 if aux is None else 2
    records = np.empty(keys.shape[0], dtype=kv_dtype(lanes))
    records[KEY_FIELD] = keys
    records[VAL_FIELD] = vals
    if aux is not None:
        records[AUX_FIELD] = aux
    return records


def record_fields(records: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Split a record array into ``(keys, vals, aux-or-None)`` views."""
    aux = records[AUX_FIELD] if AUX_FIELD in (records.dtype.names or ()) else None
    return records[KEY_FIELD], records[VAL_FIELD], aux
