"""2-bit DNA alphabet: encoding, decoding, complementation.

Bases are encoded ``A=0, C=1, G=2, T=3`` so that the Watson–Crick complement
of a code ``c`` is ``3 - c`` — a single vectorized subtraction. Everything
here operates on numpy ``uint8`` arrays; strings only appear at the I/O
boundary.
"""

from __future__ import annotations

import numpy as np

from ..errors import DatasetError

#: Number of symbols in the DNA alphabet.
ALPHABET_SIZE = 4

#: Canonical base order; index = 2-bit code.
BASES = "ACGT"

_ENCODE_LUT = np.full(256, 255, dtype=np.uint8)
for _i, _b in enumerate(BASES):
    _ENCODE_LUT[ord(_b)] = _i
    _ENCODE_LUT[ord(_b.lower())] = _i
_DECODE_LUT = np.frombuffer(BASES.encode("ascii"), dtype=np.uint8)


def encode(seq: str | bytes, *, on_invalid: str = "strict") -> np.ndarray:
    """Encode an ASCII DNA string to a ``uint8`` code array.

    ``on_invalid`` controls what happens for characters outside ``ACGTacgt``:
    ``"strict"`` raises :class:`~repro.errors.DatasetError`; ``"mask"`` maps
    them (including ``N``) to ``A``, the common short-read convention when no
    error model is applied.
    """
    if isinstance(seq, str):
        seq = seq.encode("ascii")
    raw = np.frombuffer(seq, dtype=np.uint8)
    codes = _ENCODE_LUT[raw]
    invalid = codes == 255
    if invalid.any():
        if on_invalid == "mask":
            codes = np.where(invalid, np.uint8(0), codes)
        else:
            bad = chr(raw[np.argmax(invalid)])
            raise DatasetError(f"invalid DNA character {bad!r} (use on_invalid='mask' to accept)")
    return codes


def decode(codes: np.ndarray) -> str:
    """Decode a ``uint8`` code array (1-D) back to an ASCII string."""
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.ndim != 1:
        raise DatasetError("decode expects a 1-D code array; decode rows individually")
    if codes.size and codes.max() >= ALPHABET_SIZE:
        raise DatasetError("code array contains values outside the 2-bit alphabet")
    return _DECODE_LUT[codes].tobytes().decode("ascii")


def complement_codes(codes: np.ndarray) -> np.ndarray:
    """Watson–Crick complement of a code array (any shape), vectorized."""
    return (ALPHABET_SIZE - 1 - np.asarray(codes, dtype=np.uint8)).astype(np.uint8)


def reverse_complement(codes: np.ndarray) -> np.ndarray:
    """Reverse complement along the last axis.

    Works on a single read (1-D) or a whole batch (2-D, one read per row) —
    the batch form is what the map phase uses, one kernel for the batch.
    """
    return complement_codes(codes)[..., ::-1].copy()


def reverse_complement_str(seq: str) -> str:
    """Reverse complement of an ASCII DNA string (convenience wrapper)."""
    return decode(reverse_complement(encode(seq)))
