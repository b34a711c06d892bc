"""Order statistics and failure accounting shared by the workloads."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(values):
    """Highest nearest-rank percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``, or ``None`` when there are too few
    samples for any percentile to have ten beyond it.  The sample of rank
    ``r`` (1-based) is the ``100*r/n``-th percentile and has ``n - r``
    samples beyond it, so the answer is rank ``n - 10``.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND
    return sorted(values)[rank - 1], 100.0 * rank / n, n


def median(values) -> float:
    return float(statistics.median(values))


class Tally:
    """Operations attempted and failed, with the reason for each failure.

    An operation fails when it raises, exits non-zero, does not converge or
    fails its output check; each operation counts once however many of
    these apply.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, problems) -> bool:
        """Count one operation; ``problems`` lists what went wrong with it."""
        self.attempted += 1
        problems = [p for p in problems if p]
        if problems:
            self.failed += 1
            self.reasons.append(f"{what}: " + "; ".join(problems))
        return not problems

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
