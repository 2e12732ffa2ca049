"""The integer group algebra Z[A] of a finite abelian group.

Multiplication by a group element is one primitive, the translation table
`FinAbGroup.translation`; regular-representation matrices, products and the
subgroup ideals are all built on it.  Also here: the characters, read off
one integer exponent matrix, the complementary ideals attached to a subgroup
B (the principal ideal of the norm element u_B = sum of B, and the
augmentation-style ideal generated by 1-b), lattice volumes, and quotient
orders.  These furnish the exact order identities
|Z[A]/(alpha(B) + beta(B))| = |B|^(|A|/|B|) used as a test surface by the
growth experiments.  Ideals are sublattices in canonical Hermite form, and
sums, intersections and orthogonal complements all come from `hnf_rows`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .intlinalg import bareiss_det, hnf_coordinates, hnf_rows, kernel_basis, matmul
from .lattices import FinAbGroup
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

    def __add__(self, other: "GroupAlgElem") -> "GroupAlgElem":
        self._check(other)
        return GroupAlgElem(self.group, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "GroupAlgElem") -> "GroupAlgElem":
        self._check(other)
        return GroupAlgElem(self.group, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "GroupAlgElem":
        return GroupAlgElem(self.group, tuple(-a for a in self.coeffs))

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


@dataclass(frozen=True)
class SubLattice:
    """A sublattice of Z^ambient stored by its canonical Hermite basis."""

    ambient: int
    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "vectors", tuple(tuple(int(x) for x in v) for v in self.vectors)
        )
        for v in self.vectors:
            if len(v) != self.ambient:
                raise ValueError("vector length differs from ambient rank")

    @classmethod
    def from_generators(cls, ambient: int, vecs: Sequence[Sequence[int]]) -> "SubLattice":
        return cls(ambient, tuple(hnf_rows(vecs)))

    @classmethod
    def standard(cls, ambient: int) -> "SubLattice":
        return cls.from_generators(
            ambient, [[1 if i == j else 0 for i in range(ambient)] for j in range(ambient)]
        )

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def contains(self, vec: Sequence[int]) -> bool:
        return hnf_coordinates(self.vectors, vec) is not None


def norm_element(group: FinAbGroup, subgroup_elems: Sequence[Sequence[int]]) -> GroupAlgElem:
    """u_B: the sum of the elements of B inside Z[A]."""
    c = [0] * group.order
    for b in subgroup_elems:
        c[group.index_of(tuple(b))] += 1
    return GroupAlgElem(group, tuple(c))


def alpha_ideal(group: FinAbGroup, b_gens: Sequence[Sequence[int]]) -> SubLattice:
    """The principal ideal (u_B) of Z[A] as a sublattice of Z^|A|.

    Spanned by {g * u_B : g in A}, the distinct columns of the matrix of
    u_B; its Z-rank is |A|/|B|.
    """
    B = group.subgroup_closure(b_gens)
    vecs = list(dict.fromkeys(zip(*mult_matrix(norm_element(group, B)))))
    lat = SubLattice.from_generators(group.order, vecs)
    assert lat.rank == group.order // len(B)
    return lat


def beta_ideal(group: FinAbGroup, b_gens: Sequence[Sequence[int]]) -> SubLattice:
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
    return SubLattice.from_generators(group.order, vecs)


def gram_det(lat: SubLattice) -> int:
    """Exact Gram determinant det(<v_i, v_j>) of the stored basis."""
    return bareiss_det(matmul(lat.vectors, list(zip(*lat.vectors))))


def vol(lat: SubLattice) -> float:
    """Lattice volume sqrt|det Gram|; >= 1 for nonzero integral lattices."""
    if lat.rank == 0:
        return 1.0
    return math.sqrt(gram_det(lat))


def quotient_order(outer: SubLattice, inner: SubLattice) -> int:
    """|outer / inner| for a finite-index sublattice of equal rank."""
    if inner.rank != outer.rank:
        raise ValueError("quotient_order requires equal ranks (finite index)")
    coords = []
    for v in inner.vectors:
        x = hnf_coordinates(outer.vectors, v)
        if x is None:
            raise ValueError("inner lattice is not contained in outer lattice")
        coords.append(x)
    return abs(bareiss_det(coords))


def sum_ideals(lats: Sequence[SubLattice]) -> SubLattice:
    """Lattice sum via concatenation of generators and reduction."""
    if not lats:
        raise ValueError("empty sum")
    ambient = lats[0].ambient
    vecs: list[Sequence[int]] = []
    for lat in lats:
        if lat.ambient != ambient:
            raise ValueError("ambient rank mismatch")
        vecs.extend(lat.vectors)
    return SubLattice.from_generators(ambient, vecs)


def intersect_ideals(lats: Sequence[SubLattice]) -> SubLattice:
    """Pairwise lattice intersection: the rows (x, x) for x in acc and (y, 0)
    for y in lat span {(a + b, a)}, so the Hermite rows whose first block is
    zero carry a canonical basis of acc ∩ lat in their second block."""
    if not lats:
        raise ValueError("empty intersection")
    ambient = lats[0].ambient
    acc = lats[0]
    for lat in lats[1:]:
        if lat.ambient != ambient:
            raise ValueError("ambient rank mismatch")
        rows = [x + x for x in acc.vectors] + [y + (0,) * ambient for y in lat.vectors]
        basis = [r[ambient:] for r in hnf_rows(rows) if not any(r[:ambient])]
        acc = SubLattice(ambient, tuple(basis))
    return acc


def orthogonal_complement(lat: SubLattice) -> SubLattice:
    """{x in Z^ambient : <x, v> = 0 for all v in the lattice} (primitive)."""
    if lat.rank == 0:
        return SubLattice.standard(lat.ambient)
    return SubLattice(lat.ambient, tuple(kernel_basis(lat.vectors)))


@dataclass(frozen=True)
class Character:
    """A character of A = Z^n/Gamma as a root-of-unity tuple.

    `rotations` are the rotation numbers q_i = W[c, i]/e of
    `character_exponents`, z_i = exp(2*pi*i*q_i), and z^gamma = 1 on Gamma.
    `digits` indexes the character against the canonical element order.
    """

    digits: tuple[int, ...]
    rotations: tuple[Fraction, ...]
    factors: tuple[int, ...]

    def value_on(self, elem: Sequence[int]) -> Fraction:
        """Rotation number of chi(a) for an element in digit form."""
        q = sum(Fraction(c * a, d) for c, a, d in zip(self.digits, elem, self.factors))
        return q % 1

    def point(self) -> tuple[complex, ...]:
        """The complex point (z_1, ..., z_n) on the torus."""
        return tuple(cmath.exp(2j * cmath.pi * float(q)) for q in self.rotations)


def character_exponents(group: FinAbGroup) -> np.ndarray:
    """The |A| x n integer matrix W with chi_c(t_j) = exp(2*pi*i*W[c, j]/e).

    e is the exponent of A and rows follow the element order: chi_c(a) =
    exp(2*pi*i * sum_i c_i a_i / d_i), so W[c, j] = sum_i c_i a_i e/d_i mod e
    for the digits a of the image of t_j.
    """
    e = group.exponent
    images = [[a * (e // d) for a, d in zip(group.project(v), group.invariant_factors)]
              for v in np.eye(group.nvars, dtype=int).tolist()]
    images = np.array(images, dtype=np.int64).reshape(group.nvars, group.rank)
    return np.array(group.elements(), dtype=np.int64) @ images.T % e


def characters(group: FinAbGroup) -> list[Character]:
    """All |A| characters, ordered like the element enumeration."""
    e = group.exponent
    return [
        Character(digits, tuple(Fraction(w, e) for w in row), group.invariant_factors)
        for digits, row in zip(group.elements(), character_exponents(group).tolist())
    ]
