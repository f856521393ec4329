"""Exact percentiles from raw samples, with a sample-count floor.

Percentiles are interpolated linearly between the two nearest order
statistics of the sorted raw samples (no histogram buckets), so one
slow sample moves a percentile by at most the gap to its neighbour.
A percentile is only published when at least ``MIN_BEYOND`` samples
lie beyond it: p50 needs 20 samples and p90 needs 100.
"""

import math
from typing import Sequence

#: Samples that must lie beyond a published percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """Raised instead of publishing a percentile the sample cannot carry."""


def required_samples(q: float) -> int:
    """Smallest sample count that may publish the ``q`` percentile."""
    return math.ceil(MIN_BEYOND / (1.0 - q) - 1e-9)


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q`` percentile (0 < q < 1) of ``samples``, interpolated."""
    n = len(samples)
    if n < required_samples(q):
        raise TooFewSamples(
            f"p{round(q * 100)} needs {required_samples(q)} samples "
            f"({MIN_BEYOND} beyond it), got {n}"
        )
    ordered = sorted(samples)
    position = q * (n - 1)
    lo = math.floor(position)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def median_or_zero(samples: Sequence[float]) -> float:
    """Median of a per-layer sample, 0.0 when the layer saw no work."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
