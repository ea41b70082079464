"""Seeded generators against the Fraction routes they replaced: equal
seeds must give equal matrices and leave the generator in equal states."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fraction_random_invertible, fraction_random_metric
from lieconf import Matrix, sampling

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 5)


def _twin(seed: int) -> tuple[random.Random, random.Random]:
    return random.Random(seed), random.Random(seed)


@given(seeds, dims)
@settings(max_examples=60, deadline=None)
def test_random_int_matrix_matches_oracle(seed, n):
    rng, oracle = _twin(seed)
    expected = Matrix.from_rows([[oracle.randint(-4, 4) for _ in range(n)] for _ in range(n)])
    assert sampling.random_int_matrix(rng, n) == expected
    assert rng.getstate() == oracle.getstate()


@given(seeds, dims, st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_random_invertible_matches_oracle(seed, n, bound):
    # bound 1 at n = 5 rejects often, so the rejection loop runs too
    rng, oracle = _twin(seed)
    assert sampling.random_invertible(rng, n, bound) == fraction_random_invertible(oracle, n, bound)
    assert rng.getstate() == oracle.getstate()


@given(seeds, st.data())
@settings(max_examples=60, deadline=None)
def test_random_metric_matches_oracle(seed, data):
    n = data.draw(dims)
    positive = data.draw(st.integers(0, n))
    rng, oracle = _twin(seed)
    m = sampling.random_metric(rng, n, positive)
    assert m.gram == fraction_random_metric(oracle, n, positive).gram
    assert m.signature == (positive, n - positive)
    assert rng.getstate() == oracle.getstate()
