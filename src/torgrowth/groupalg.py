"""The integer group algebra Z[A] of a finite abelian group.

An element of Z[A] is a tuple of integer coefficients in
`FinAbGroup.elements()` order.  The one product is `mult_matrix(coeffs,
group)`, the matrix of x -> a*x built on the translation table
`FinAbGroup.translation`: a*b is that matrix times b.  Also here: the
push-forward `project_poly` of a Laurent polynomial, and the characters as
one integer exponent matrix (`character_exponents`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .lattices import FinAbGroup
from .laurent import LaurentPoly


def project_poly(f: LaurentPoly, group: FinAbGroup) -> tuple[int, ...]:
    """Push a Laurent polynomial along Z[t1^±,...] -> Z[A_Gamma].

    Sums coefficients over exponent classes mod Gamma.
    """
    if f.nvars != group.nvars:
        raise ValueError("dimension mismatch between polynomial and group")
    out = [0] * group.order
    for exp, c in f.terms:
        out[group.index_of(group.project(exp))] += c
    return tuple(out)


def mult_matrix(coeffs: Sequence[int], group: FinAbGroup) -> list[list[int]]:
    """Matrix of x -> a*x on Z[A] in the canonical basis (columns = images),
    for the element a with coefficients `coeffs`; a*b is this matrix times b.

    Dense |A| x |A| output: memory is O(|A|^2).
    """
    n = group.order
    if len(coeffs) != n:
        raise ValueError(f"{len(coeffs)} coefficients for a group of order {n}")
    elems = group.elements()
    out = [[0] * n for _ in range(n)]
    for i, c in enumerate(coeffs):
        if c:
            for j, k in enumerate(group.translation(elems[i])):
                out[k][j] += c
    return out


def character_exponents(group: FinAbGroup) -> np.ndarray:
    """The |A| x n integer matrix W with chi_c(t_j) = exp(2*pi*i*W[c, j]/e).

    e is the exponent of A and rows follow the element order: chi_c(a) =
    exp(2*pi*i * sum_i c_i a_i / d_i), so W[c, j] = sum_i c_i a_i e/d_i mod e
    for the digits a of the image of t_j.  This matrix is the package's one
    representation of the characters of A.
    """
    e = group.exponent
    images = [[a * (e // d) for a, d in zip(group.project(v), group.invariant_factors)]
              for v in np.eye(group.nvars, dtype=int).tolist()]
    images = np.array(images, dtype=np.int64).reshape(group.nvars, group.rank)
    return np.array(group.elements(), dtype=np.int64) @ images.T % e
