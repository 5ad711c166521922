"""Koszul sign bookkeeping for graded objects.

Everything downstream (tree grafting, multilinear evaluation, L-infinity
brackets) funnels its sign conventions through this module, so the rules
live in exactly one place:

* reordering graded objects x_1 ... x_n into x_{sigma(1)} ... x_{sigma(n)}
  multiplies by ``(-1)**(|x_a| * |x_b|)`` for every pair that exchanges
  positions (the Koszul sign ``epsilon``); ``inversion_sign`` is the one
  loop that computes it, and the signature is ``epsilon`` with every degree
  odd;
* ``chi`` is ``epsilon`` times the ordinary signature of the permutation;
* ``parity_sign(e)`` is ``(-1)**e``;
* shuffles enumerate the permutations that stay increasing on each of a
  list of consecutive blocks.

Permutations are 1-indexed tuples ``(sigma(1), ..., sigma(n))`` throughout.
All scalars in this package are exact: signs are Python ints, coefficients
are ``fractions.Fraction``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

Permutation = tuple[int, ...]


def _check_permutation(sigma: Sequence[int], n: int) -> None:
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {tuple(sigma)}")


def parity_sign(exponent: int) -> int:
    """``(-1)**exponent`` as an int, for any integer exponent.

    >>> parity_sign(3), parity_sign(-2)
    (-1, 1)
    """
    return -1 if exponent % 2 else 1


def koszul_epsilon(sigma: Sequence[int], degs: Sequence[int]) -> int:
    """Sign for reordering x_1 ... x_n into x_{sigma(1)} ... x_{sigma(n)}.

    ``degs[k-1]`` is the degree of x_k.  Returns +1 or -1.

    >>> koszul_epsilon((2, 1), (1, 1))
    -1
    >>> koszul_epsilon((2, 1), (1, 2))
    1
    """
    if len(sigma) != len(degs):
        raise ValueError("permutation and degree sequence lengths differ")
    _check_permutation(sigma, len(degs))
    return inversion_sign(list(enumerate(degs, 1)), sigma)


def permutation_sign(sigma: Sequence[int]) -> int:
    """Ordinary signature: (-1)**(number of inversions)."""
    return koszul_epsilon(sigma, (1,) * len(sigma))


def koszul_chi(sigma: Sequence[int], degs: Sequence[int]) -> int:
    """``sgn(sigma) * koszul_epsilon(sigma, degs)``.

    >>> koszul_chi((2, 1), (0, 0))
    -1
    >>> koszul_chi((2, 1), (1, 1))
    1
    """
    return permutation_sign(sigma) * koszul_epsilon(sigma, degs)


def shuffles(block_sizes: Sequence[int]) -> list[Permutation]:
    """All permutations of {1..n} increasing on each consecutive block.

    ``block_sizes = (i_1, ..., i_r)`` with n = i_1 + ... + i_r.  The result
    is sorted lexicographically and has multinomial(n; i_1, ..., i_r)
    entries.

    >>> shuffles((1, 1))
    [(1, 2), (2, 1)]
    >>> len(shuffles((2, 2)))
    6
    """
    if any(size < 0 for size in block_sizes):
        raise ValueError("block sizes must be nonnegative")
    n = sum(block_sizes)
    results: list[Permutation] = []

    def fill(remaining_blocks: list[int], available: tuple[int, ...], prefix: tuple[int, ...]) -> None:
        if not remaining_blocks:
            results.append(prefix)
            return
        size, rest = remaining_blocks[0], remaining_blocks[1:]
        for chosen in combinations(available, size):
            leftover = tuple(v for v in available if v not in chosen)
            fill(rest, leftover, prefix + chosen)

    fill(list(block_sizes), tuple(range(1, n + 1)), ())
    results.sort()
    return results


def inversion_sign(tagged: Sequence[tuple[int, int]], target_order: Sequence[int]) -> int:
    """Koszul sign for reordering a tagged degree list into a target order.

    ``tagged`` is a list of ``(tag, degree)`` pairs in their current order;
    ``target_order`` lists the same tags in the desired order.  The sign is
    the product of ``(-1)**(deg_a * deg_b)`` over all pairs whose relative
    order flips.  This is the one inversion loop of the package: the Koszul
    signs above and the grafting signs of tree monomials all reduce to it.
    """
    position = {tag: k for k, (tag, _) in enumerate(tagged)}
    if len(position) != len(tagged):
        raise ValueError("duplicate tags")
    if sorted(target_order) != sorted(position):
        raise ValueError("target order must list exactly the original tags")
    degree_of = {tag: deg for tag, deg in tagged}
    exponent = 0
    for a in range(len(target_order)):
        for b in range(a + 1, len(target_order)):
            if position[target_order[a]] > position[target_order[b]]:
                exponent += degree_of[target_order[a]] * degree_of[target_order[b]]
    return parity_sign(exponent)
