"""The integer group algebra Z[A] of a finite abelian group.

Multiplication by a group element is one primitive, the translation table
`FinAbGroup.translation`; regular-representation matrices, products and the
subgroup ideals are all built on it.  Also here: the characters, one
integer exponent matrix (`character_exponents`), the complementary ideals
attached to a subgroup B (the principal ideal of the norm element u_B = sum
of B, and the augmentation-style ideal generated by 1-b), and lattice
volumes.  These furnish the exact order identities
|Z[A]/(alpha(B) + beta(B))| = |B|^(|A|/|B|), read off as
`Subgroup.index()`, used as a test surface by the growth experiments.  Ideals are `lattices.Subgroup`s of Z^|A| stored by
their canonical Hermite rows, and sums and intersections come from
`hnf_rows`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .intlinalg import bareiss_det, hnf_rows, matmul
from .lattices import FinAbGroup, Subgroup
from .laurent import LaurentPoly


@dataclass(frozen=True)
class GroupAlgElem:
    """An element of Z[A]: coefficients over the canonical element order."""

    group: FinAbGroup
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        if len(self.coeffs) != self.group.order:
            raise ValueError("coefficient vector length differs from |A|")

    @classmethod
    def identity(cls, group: FinAbGroup) -> "GroupAlgElem":
        c = [0] * group.order
        c[group.index_of(group.identity())] = 1
        return cls(group, tuple(c))

    @classmethod
    def basis_element(cls, group: FinAbGroup, elem: Sequence[int]) -> "GroupAlgElem":
        c = [0] * group.order
        c[group.index_of(tuple(elem))] = 1
        return cls(group, tuple(c))

    def __sub__(self, other: "GroupAlgElem") -> "GroupAlgElem":
        self._check(other)
        return GroupAlgElem(self.group, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "GroupAlgElem") -> "GroupAlgElem":
        self._check(other)
        A = self.group
        elems = A.elements()
        out = [0] * A.order
        for i, a in enumerate(self.coeffs):
            if a:
                for j, k in enumerate(A.translation(elems[i])):
                    out[k] += a * other.coeffs[j]
        return GroupAlgElem(A, tuple(out))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check(self, other):
        if other.group is not self.group and other.group.invariant_factors != self.group.invariant_factors:
            raise ValueError("elements of different group algebras")


def project_poly(f: LaurentPoly, group: FinAbGroup) -> GroupAlgElem:
    """Push a Laurent polynomial along Z[t1^±,...] -> Z[A_Gamma].

    Sums coefficients over exponent classes mod Gamma.
    """
    if f.nvars != group.nvars:
        raise ValueError("dimension mismatch between polynomial and group")
    out = [0] * group.order
    for exp, c in f.terms:
        out[group.index_of(group.project(exp))] += c
    return GroupAlgElem(group, tuple(out))


def mult_matrix(a: GroupAlgElem) -> list[list[int]]:
    """Matrix of x -> a*x on Z[A] in the canonical basis (columns = images).

    Dense |A| x |A| output: memory is O(|A|^2).
    """
    A = a.group
    n = A.order
    elems = A.elements()
    out = [[0] * n for _ in range(n)]
    for i, c in enumerate(a.coeffs):
        if c:
            for j, k in enumerate(A.translation(elems[i])):
                out[k][j] += c
    return out


def norm_element(group: FinAbGroup, subgroup_elems: Sequence[Sequence[int]]) -> GroupAlgElem:
    """u_B: the sum of the elements of B inside Z[A]."""
    c = [0] * group.order
    for b in subgroup_elems:
        c[group.index_of(tuple(b))] += 1
    return GroupAlgElem(group, tuple(c))


def alpha_ideal(group: FinAbGroup, b_gens: Sequence[Sequence[int]]) -> Subgroup:
    """The principal ideal (u_B) of Z[A] as a sublattice of Z^|A|.

    Spanned by {g * u_B : g in A}, the distinct columns of the matrix of
    u_B; its Z-rank is |A|/|B|.
    """
    B = group.subgroup_closure(b_gens)
    vecs = list(dict.fromkeys(zip(*mult_matrix(norm_element(group, B)))))
    lat = Subgroup.from_generators(group.order, vecs)
    assert lat.rank() == group.order // len(B)
    return lat


def beta_ideal(group: FinAbGroup, b_gens: Sequence[Sequence[int]]) -> Subgroup:
    """The ideal of Z[A] generated by {1 - b : b in B}, as a sublattice.

    Spanned by {g*(1-b)}, the columns of the matrices of the 1 - b; the
    kernel lattice of Z[A] -> Z[A/B].
    """
    one = GroupAlgElem.identity(group)
    vecs = []
    for b in b_gens:
        b = group.add(group.identity(), b)  # generators may be unreduced digits
        cols = zip(*mult_matrix(one - GroupAlgElem.basis_element(group, b)))
        vecs.extend(v for v in cols if any(v))
    return Subgroup.from_generators(group.order, vecs)


def gram_det(lat: Subgroup) -> int:
    """Exact Gram determinant det(<v_i, v_j>) of the Hermite basis."""
    basis = lat.basis()
    return bareiss_det(matmul(basis, list(zip(*basis))))


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
    return Subgroup.from_generators(ambient, vecs)


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
        acc = Subgroup(ambient, tuple(basis))
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
