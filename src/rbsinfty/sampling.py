"""Seeded random generators for maps, tensors, and structures.

Used by the CLI's randomized verification commands and by the test suite;
all draws go through a caller-supplied `random.Random` so runs are
reproducible from a seed.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Optional, Sequence

from .graded import BasedAlgebra, GradedSpace, MultiMap, TensorElem

DEFAULT_COEFFICIENTS: tuple[Fraction, ...] = (
    Fraction(-2),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
)


def random_multimap(
    rng: random.Random,
    space_in: GradedSpace,
    space_out: GradedSpace,
    arity: int,
    degree: int,
    density: float = 0.5,
    coefficients: Sequence[Fraction] = DEFAULT_COEFFICIENTS,
) -> MultiMap:
    """A random homogeneous map; entries only where the grading allows one."""
    table: dict[tuple[str, ...], dict[str, Fraction]] = {}
    degrees_in = space_in._degrees
    by_degree: dict[int, list[str]] = {}
    for name in space_out.names:
        by_degree.setdefault(space_out.degree(name), []).append(name)
    coefficients = list(coefficients)
    for ins in itertools.product(space_in.names, repeat=arity):
        candidates = by_degree.get(sum(map(degrees_in.__getitem__, ins)) + degree)
        if not candidates or rng.random() >= density:
            continue
        table[ins] = {rng.choice(candidates): rng.choice(coefficients)}
    return MultiMap(space_in, space_out, arity, degree, table)


def random_tensor(
    rng: random.Random,
    algebra: BasedAlgebra,
    order: int,
    degree: Optional[int] = None,
    density: float = 0.5,
    coefficients: Sequence[Fraction] = DEFAULT_COEFFICIENTS,
) -> TensorElem:
    """A random tensor, homogeneous of the given degree when one is supplied."""
    space = algebra.space
    table: dict[tuple[str, ...], Fraction] = {}
    for factors in itertools.product(space.names, repeat=order):
        if degree is not None:
            if sum(space.degree(name) for name in factors) != degree:
                continue
        if rng.random() >= density:
            continue
        table[factors] = rng.choice(list(coefficients))
    return TensorElem(algebra, order, table)
