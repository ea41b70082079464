"""Seeded inputs for the benchmark workloads.

A workload's inputs are a function of its seed alone; the program only
ever sees the generated documents (analyze) or argv (verify).

* analyze-sparse: `diagonalN` / `gradedN` documents at n = 6, 7, 8. For each
  n one document lies on the non-Killing slice
  lambda_1 = ... = lambda_{n-2} = lambda_{n-1} / 2 (one conformal solution,
  one soliton) and one lies off it with distinct eigenvalues. Which family
  takes which slot is fixed, so seeds vary values, not structure.
* analyze-dense: `sampling.random_line_action_algebra` at n = 5, 6, 7 (six
  each), moved by a random integer `change_of_basis`, with a `random_metric`
  of random signature.
* verify-sweep: four calls of `lieconf verify --scope all --samples 30`, with
  --seed 4S to 4S + 3. The dimensions of one call's 30 random instances are
  drawn at random, which moves its cost by about 10%; four calls average
  that out.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from lieconf import catalog, sampling
from lieconf.documents import Instance, instance_to_document

DEFAULT_SEED = 0
SPARSE_DIMS = (6, 7, 8)
# (family on the slice, family off the slice), by position in SPARSE_DIMS
SPARSE_FAMILIES = (("diagonalN", "gradedN"), ("gradedN", "diagonalN"), ("diagonalN", "gradedN"))
SPARSE_BETAS = 3
DENSE_DIMS = (5, 6, 7)
DENSE_PER_DIM = 6
VERIFY_SAMPLES = 30


@dataclass(frozen=True)
class Doc:
    """One analyze input: its JSON text and what the generator knows of it."""

    name: str
    text: str
    expect_nonkilling: bool | None = None


def _nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))


def _document(name: str, family: str, params: dict) -> str:
    g, m = catalog.instantiate(family, params)
    metadata = {"family": family, "params": {k: str(v) for k, v in sorted(params.items())}}
    return json.dumps(instance_to_document(Instance(g, m, name=name, metadata=metadata)))


def _sparse_params(rng: random.Random, family: str, n: int, on_slice: bool) -> dict:
    if on_slice:
        c = _nonzero(rng)
        lams = [c] * (n - 2) + [2 * c]
    else:
        # distinct eigenvalues, lambda_{n-1} = lambda_1 + lambda_2 so gradedN may set beta12
        while True:
            lams = [_nonzero(rng) for _ in range(n - 2)]
            lams.append(lams[0] + lams[1])
            if lams[-1] != 0 and sum(lams) != 0 and len(set(lams)) == n - 1:
                break
    params: dict = {"n": n, **{f"lambda{i + 1}": lam for i, lam in enumerate(lams)}}
    if family == "gradedN":
        pairs = [(i, j) for i in range(1, n - 1) for j in range(i + 1, n - 1)]
        if not on_slice:
            pairs = [(1, 2)]
        for i, j in rng.sample(pairs, min(SPARSE_BETAS, len(pairs))):
            params[f"beta{i}{j}"] = _nonzero(rng)
    return params


def sparse_docs(seed: int, dims: tuple[int, ...] = SPARSE_DIMS) -> list[Doc]:
    rng = random.Random(f"analyze-sparse/{seed}")
    docs = []
    for n, families in zip(dims, SPARSE_FAMILIES):
        for family, on_slice in zip(families, (True, False)):
            name = f"{family}-n{n}-{'on' if on_slice else 'off'}-slice"
            params = _sparse_params(rng, family, n, on_slice)
            docs.append(Doc(name, _document(name, family, params), on_slice))
    return docs


def dense_docs(seed: int, dims: tuple[int, ...] = DENSE_DIMS, per_dim: int = DENSE_PER_DIM) -> list[Doc]:
    rng = random.Random(f"analyze-dense/{seed}")
    docs = []
    for n in dims:
        for k in range(per_dim):
            g = sampling.random_line_action_algebra(rng, n)
            g = g.change_of_basis(sampling.random_invertible(rng, n))
            m = sampling.random_metric(rng, n, rng.randint(0, n))
            name = f"line-action-n{n}-{k}"
            docs.append(Doc(name, json.dumps(instance_to_document(Instance(g, m, name=name)))))
    return docs


def verify_argv(seed: int, samples: int = VERIFY_SAMPLES) -> list[str]:
    return ["verify", "--scope", "all", "--seed", str(seed), "--samples", str(samples)]


VERIFY_CALLS = 4


def verify_seeds(seed: int) -> list[int]:
    return [VERIFY_CALLS * seed + k for k in range(VERIFY_CALLS)]


def verify_instances(samples: int = VERIFY_SAMPLES) -> int:
    """Instances one verify call covers: the 18 catalog targets, the random
    instances, and samples // 5 random metrics for each of the 4 signatures of
    each of the 4 three-dimensional unimodular built-ins."""
    return 18 + samples + 4 * 4 * (samples // 5)
