"""Human-readable units: byte sizes and durations.

The paper reports sizes like ``398 GB`` and durations like ``16h 21m 09s``;
the benchmark harnesses render their tables in the same style so paper and
measured values can be compared at a glance.
"""

from __future__ import annotations

import re

from .errors import ConfigError

_SIZE_SUFFIXES = {
    "b": 1,
    "kb": 10**3,
    "mb": 10**6,
    "gb": 10**9,
    "tb": 10**12,
    "kib": 2**10,
    "mib": 2**20,
    "gib": 2**30,
    "tib": 2**40,
}

_SIZE_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+)\s*([a-zA-Z]*)\s*$")


def parse_size(text: str | int | float) -> int:
    """Parse a byte size such as ``"12 GB"``, ``"6GiB"`` or ``4096``.

    Decimal suffixes (kB/MB/GB/TB) are powers of 1000, binary suffixes
    (KiB/MiB/GiB/TiB) powers of 1024; a bare number is bytes.
    """
    if isinstance(text, (int, float)):
        return int(text)
    match = _SIZE_RE.match(text)
    if not match:
        raise ConfigError(f"unparseable size: {text!r}")
    value, suffix = float(match.group(1)), match.group(2).lower()
    if suffix in ("", "b"):
        return int(value)
    if suffix not in _SIZE_SUFFIXES:
        raise ConfigError(f"unknown size suffix {suffix!r} in {text!r}")
    return int(value * _SIZE_SUFFIXES[suffix])


def format_size(nbytes: float, *, precision: int = 2) -> str:
    """Render a byte count with a decimal suffix, e.g. ``398.41 GB``."""
    nbytes = float(nbytes)
    sign = "-" if nbytes < 0 else ""
    nbytes = abs(nbytes)
    for suffix, factor in (("TB", 10**12), ("GB", 10**9), ("MB", 10**6), ("kB", 10**3)):
        if nbytes >= factor:
            return f"{sign}{nbytes / factor:.{precision}f} {suffix}"
    return f"{sign}{nbytes:.0f} B"


_DURATION_PART_RE = re.compile(r"([0-9]*\.?[0-9]+)\s*(h|hr|hrs|hour|hours|m|min|mins|s|sec|secs)")


def parse_duration(text: str | int | float) -> float:
    """Parse a duration such as ``"16h 21m 09s"`` or ``"26m 6s"`` to seconds.

    A bare number is seconds. This is the inverse of :func:`format_duration`
    for the formats the paper's tables use.
    """
    if isinstance(text, (int, float)):
        return float(text)
    total = 0.0
    matched_any = False
    for value, unit in _DURATION_PART_RE.findall(text.lower()):
        matched_any = True
        seconds = float(value) * {"h": 3600.0, "m": 60.0, "s": 1.0}[unit[0]]
        total += seconds
    if not matched_any:
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"unparseable duration: {text!r}") from None
    return total


def format_duration(seconds: float) -> str:
    """Render seconds in the paper's table style: ``2h 23m 55s`` / ``25s``.

    Sub-second durations keep two significant decimals so scaled-down runs
    remain readable.
    """
    if seconds < 0:
        return "-" + format_duration(-seconds)
    if seconds < 1.0:
        return f"{seconds:.3g}s"
    whole = int(round(seconds))
    hours, rem = divmod(whole, 3600)
    minutes, secs = divmod(rem, 60)
    if hours:
        return f"{hours}h {minutes}m {secs:02d}s"
    if minutes:
        return f"{minutes}m {secs}s"
    return f"{secs}s"
