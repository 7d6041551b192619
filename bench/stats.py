"""Sample summaries shared by the runner and ``bench.compare``."""

from __future__ import annotations

import statistics

#: A tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10


def summarize(samples: list[float], better: str) -> dict:
    """Median, quartiles, ``n`` and the worst-side tail of ``samples``.

    ``p_hi`` is the value at the highest percentile that still has
    ``TAIL_SAMPLES`` samples beyond it on the *worse* side (the slow tail
    of a timing, the low tail of a rate); ``None`` when the sample is too
    small for any percentile past the median to qualify.
    """
    ordered = sorted(samples, reverse=(better == "higher"))
    n = len(ordered)
    if n >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = ordered[0]
    summary = {
        "value": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "n": n,
        "p_hi": None,
        "p_hi_percentile": None,
    }
    index = n - 1 - TAIL_SAMPLES
    if index > n // 2:
        summary["p_hi"] = ordered[index]
        summary["p_hi_percentile"] = round(100.0 * (index + 1) / n, 1)
    return summary


def spread(summary: dict) -> float:
    """Inter-quartile distance as a share of the median."""
    if not summary["value"]:
        return 0.0
    return abs(summary["q3"] - summary["q1"]) / abs(summary["value"])


def worsening(a: float, b: float, better: str) -> float:
    """Share of ``a`` by which ``b`` is worse (negative when better)."""
    if not a:
        return 0.0
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``ok | regressed | unresolved`` for one metric, A → B.

    B regressed when it is worse than A by more than both the bound and
    A's own quartile spread. When A's spread is wider than the bound a
    change of the bound's size cannot be told from noise, so anything
    short of that is unresolved rather than ok.
    """
    noise = spread(a)
    worse = worsening(a["value"], b["value"], better)
    if worse > max(bound, noise):
        return "regressed"
    if noise > bound:
        return "unresolved"
    return "ok"
