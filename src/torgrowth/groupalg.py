"""The integer group algebra Z[A] of a finite abelian group.

An element of Z[A] is a tuple of integer coefficients in
`FinAbGroup.elements()` order.  The one product is `mult_matrix(coeffs,
group)`, the matrix of x -> a*x built on the translation table
`FinAbGroup.translation`: a*b is that matrix times b.  Also here: the
characters, one integer exponent matrix (`character_exponents`), the
complementary ideals attached to a subgroup B (the principal ideal of the
norm element u_B = sum of B, and the augmentation-style ideal generated by
1-b), and lattice volumes.  These furnish the exact order identities
|Z[A]/(alpha(B) + beta(B))| = |B|^(|A|/|B|), read off as
`Subgroup.index()`, used as a test surface by the growth experiments.
Ideals are `lattices.Subgroup`s of Z^|A|, so canonical Hermite rows; a sum
is the `Subgroup` of both row sets, an intersection comes from `hnf_rows`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .intlinalg import bareiss_det, hnf_rows, matmul
from .lattices import FinAbGroup, Subgroup
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


def norm_element(group: FinAbGroup, subgroup_elems: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """u_B: the sum of the elements of B inside Z[A]."""
    c = [0] * group.order
    for b in subgroup_elems:
        c[group.index_of(tuple(b))] += 1
    return tuple(c)


def alpha_ideal(group: FinAbGroup, b_gens: Sequence[Sequence[int]]) -> Subgroup:
    """The principal ideal (u_B) of Z[A] as a sublattice of Z^|A|.

    Spanned by {g * u_B : g in A}, the distinct columns of the matrix of
    u_B; its Z-rank is |A|/|B|.
    """
    B = group.subgroup_closure(b_gens)
    vecs = list(dict.fromkeys(zip(*mult_matrix(norm_element(group, B), group))))
    lat = Subgroup(group.order, vecs)
    assert lat.rank() == group.order // len(B)
    return lat


def beta_ideal(group: FinAbGroup, b_gens: Sequence[Sequence[int]]) -> Subgroup:
    """The ideal of Z[A] generated by {1 - b : b in B}, as a sublattice.

    Spanned by {g*(1-b)}, the columns of the matrices of the 1 - b; the
    kernel lattice of Z[A] -> Z[A/B].
    """
    vecs = []
    for b in b_gens:
        one_minus_b = [0] * group.order
        one_minus_b[group.index_of(group.identity())] = 1
        one_minus_b[group.index_of(group.add(group.identity(), b))] -= 1  # b may be unreduced
        cols = zip(*mult_matrix(one_minus_b, group))
        vecs.extend(v for v in cols if any(v))
    return Subgroup(group.order, vecs)


def gram_det(lat: Subgroup) -> int:
    """Exact Gram determinant det(<v_i, v_j>) of the Hermite basis."""
    return bareiss_det(matmul(lat.gens, list(zip(*lat.gens))))


def vol(lat: Subgroup) -> float:
    """Lattice volume sqrt|det Gram|; >= 1 for nonzero integral lattices."""
    if lat.rank() == 0:
        return 1.0
    return math.sqrt(gram_det(lat))


def sum_ideals(lats: Sequence[Subgroup]) -> Subgroup:
    """Lattice sum via concatenation of generators and reduction."""
    if not lats:
        raise ValueError("empty sum")
    ambient = lats[0].nvars
    vecs: list[Sequence[int]] = []
    for lat in lats:
        if lat.nvars != ambient:
            raise ValueError("ambient rank mismatch")
        vecs.extend(lat.gens)
    return Subgroup(ambient, vecs)


def intersect_ideals(lats: Sequence[Subgroup]) -> Subgroup:
    """Pairwise lattice intersection: the rows (x, x) for x in acc and (y, 0)
    for y in lat span {(a + b, a)}, so the Hermite rows whose first block is
    zero carry a canonical basis of acc ∩ lat in their second block."""
    if not lats:
        raise ValueError("empty intersection")
    ambient = lats[0].nvars
    acc = lats[0]
    for lat in lats[1:]:
        if lat.nvars != ambient:
            raise ValueError("ambient rank mismatch")
        rows = [x + x for x in acc.gens] + [y + (0,) * ambient for y in lat.gens]
        basis = [r[ambient:] for r in hnf_rows(rows) if not any(r[:ambient])]
        acc = Subgroup(ambient, basis)
    return acc


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
