"""Seeded randomness helpers."""

import math
import random

import pytest

from repro import rng as rng_mod


def test_derive_is_deterministic():
    a = rng_mod.derive(42, "label").random()
    b = rng_mod.derive(42, "label").random()
    assert a == b


def test_derive_differs_by_label():
    a = rng_mod.derive(42, "one").random()
    b = rng_mod.derive(42, "two").random()
    assert a != b


def test_derive_differs_by_seed():
    a = rng_mod.derive(1, "label").random()
    b = rng_mod.derive(2, "label").random()
    assert a != b


def test_zipf_ranks_sum_to_one():
    probs = rng_mod.zipf_ranks(100, exponent=1.1)
    assert math.isclose(sum(probs), 1.0, rel_tol=1e-9)


def test_zipf_ranks_monotone_decreasing():
    probs = rng_mod.zipf_ranks(50)
    assert all(a >= b for a, b in zip(probs, probs[1:]))


def test_zipf_ranks_rejects_nonpositive():
    with pytest.raises(ValueError):
        rng_mod.zipf_ranks(0)


def test_lognormal_mean_is_calibrated():
    rng = random.Random(3)
    samples = [rng_mod.lognormal(rng, 0.3, sigma=0.5) for _ in range(20000)]
    assert 0.27 < sum(samples) / len(samples) < 0.33


def test_lognormal_rejects_nonpositive_mean():
    rng = random.Random(3)
    with pytest.raises(ValueError):
        rng_mod.lognormal(rng, 0.0)
