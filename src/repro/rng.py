"""Seeded randomness utilities.

Every stochastic component in the reproduction draws from a
:class:`random.Random` instance that is derived deterministically from an
explicit seed, so that workloads, services, and benchmarks are reproducible
bit-for-bit across runs and machines.

The helpers here provide:

- :func:`derive` — fork an independent, deterministic child generator from a
  parent seed and a string label, so subsystems do not perturb one another's
  random sequences when the call order changes.
- :func:`zipf_ranks` — bounded Zipf probability mass; the user population
  draws tweet authors by it (``random.choices`` over its cumulative sums).
- :func:`lognormal` — latency model sampling.
"""

from __future__ import annotations

import hashlib
import math
import random

DEFAULT_SEED = 20110612  # SIGMOD 2011 started June 12, 2011.


def derive(seed: int, label: str) -> random.Random:
    """Create an independent generator from ``seed`` and a string ``label``.

    Uses SHA-256 over the seed and label so that distinct labels give
    uncorrelated streams and the mapping is stable across Python versions
    (unlike ``hash()``, which is salted).
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def zipf_ranks(n: int, exponent: float = 1.0) -> list[float]:
    """Return the Zipf probability mass for ranks ``1..n``.

    Args:
        n: number of ranks; must be positive.
        exponent: Zipf skew parameter ``s``; larger is more skewed.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    weights = [1.0 / (rank**exponent) for rank in range(1, n + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def lognormal(rng: random.Random, mean: float, sigma: float = 0.5) -> float:
    """Sample a lognormal value whose *mean* is ``mean``.

    ``random.lognormvariate`` is parameterized by the underlying normal's
    ``mu``; this helper solves for ``mu`` so the distribution's expectation
    equals ``mean``, which makes latency configuration intuitive
    ("mean 300 ms").
    """
    if mean <= 0:
        raise ValueError("mean must be positive")
    mu = math.log(mean) - sigma * sigma / 2.0
    return rng.lognormvariate(mu, sigma)
