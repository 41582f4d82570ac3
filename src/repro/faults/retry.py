"""Deterministic bounded retry with exponential backoff and seeded jitter.

The distributed supervisor wraps every node operation in a
:class:`RetryPolicy`; the I/O layer can adopt the same policy for
survivable errors (``ENOSPC``, dropped messages). Determinism is the whole
point: the backoff before attempt ``k`` of operation ``key`` is a pure
function of ``(seed, key, k)``, so the same fault plan under the same
config produces an identical retry timeline — byte-identical ``token_trace``
and sim trace, replayable from a CI seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Tuple, Type

from ..errors import ConfigError, RetryExhausted


@dataclass(frozen=True)
class RetryPolicy:
    """A bounded, deterministic exponential-backoff schedule.

    ``max_attempts`` counts the first try: ``2`` means one retry (the
    pre-resilience distributed reduce behaviour). The backoff before
    attempt ``k`` (k >= 1) is::

        base_backoff_s * backoff_multiplier**(k-1) * (1 ± jitter)

    capped at ``max_backoff_s``, with the jitter factor drawn from
    ``random.Random(f"{seed}:{key}:{k}")`` — fully determined by the
    policy seed, the operation key and the attempt number.
    """

    max_attempts: int = 2
    base_backoff_s: float = 0.05
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 10.0
    jitter_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ConfigError("backoff seconds must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ConfigError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ConfigError("jitter_fraction must be in [0, 1)")

    def backoff_s(self, attempt: int, key: str = "") -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        raw = self.base_backoff_s * self.backoff_multiplier ** (attempt - 1)
        rng = random.Random(f"{self.seed}:{key}:{attempt}")
        jitter = 1.0 + self.jitter_fraction * (2.0 * rng.random() - 1.0)
        return min(raw * jitter, self.max_backoff_s)

    def run(self, fn: Callable[[int], object], *, key: str = "",
            retry_on: Tuple[Type[BaseException], ...] = (Exception,),
            on_backoff: Callable[[int, float, BaseException], None] | None = None):
        """Call ``fn(attempt)`` until it returns or attempts run out.

        ``on_backoff(attempt, delay_s, exc)`` fires before each retry — the
        supervisor charges the delay to the simulated clock there. When the
        last attempt fails, :class:`~repro.errors.RetryExhausted` is raised
        from the final exception.
        """
        for attempt in range(self.max_attempts):
            try:
                return fn(attempt)
            except retry_on as exc:
                if attempt + 1 >= self.max_attempts:
                    raise RetryExhausted(
                        f"{key or 'operation'} failed after "
                        f"{self.max_attempts} attempts: {exc}") from exc
                if on_backoff is not None:
                    on_backoff(attempt + 1, self.backoff_s(attempt + 1, key), exc)
        raise AssertionError("unreachable")  # pragma: no cover
