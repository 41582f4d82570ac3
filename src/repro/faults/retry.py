"""Deterministic bounded retry with exponential backoff and seeded jitter.

The cluster's failure ladder takes its backoff from a :class:`RetryPolicy`:
the distributed supervisor's attempt loop charges it to the node's
simulated clock before a node operation is retried. (The service retries a
failed job without one: each attempt runs a fresh pipeline whose clock
starts at 0, so a backoff would charge nothing.) Determinism is the whole
point: the backoff before
attempt ``k`` of operation ``key`` is a pure function of ``(seed, key,
k)``, so the same fault plan under the same config produces an identical
retry timeline — byte-identical ``token_trace`` and sim trace, replayable
from a CI seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import ConfigError


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
