"""The central quantity: |Tor_Z(M ⊗ Z[A_Gamma])| and its growth statistic.

`expand` turns a presentation matrix over R into one big integer matrix by
replacing every entry with the regular-representation block of its image in
Z[A_Gamma]; Smith normal form of that matrix gives the torsion order (product
of the nonzero invariant factors), the Betti number of the cokernel, and the
growth statistic log|Tor| / |A_Gamma|.

The classical product over roots of unity of the Alexander polynomial serves
as an independent oracle for cyclic branched covers of knots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import mpmath

from .groupalg import mult_matrix, project_poly
from .intlinalg import (
    bareiss_det,
    int_log,
    kernel_basis,
    snf_diagonal,
    solve_integer,
)
from .lattices import FinAbGroup, Subgroup, direction_of, min_norm, quotient
from .laurent import LaurentPoly, div_exact
from .presmod import ChainComplex, PresentedModule


class OracleDegenerateError(ValueError):
    """The product formula is undefined: Delta vanishes at a root of unity."""


@dataclass(frozen=True)
class SnfResult:
    """Invariant factors (divisibility chain, zeros trailing) and the rank."""

    invariant_factors: tuple[int, ...]
    rank: int

    def torsion_order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            if d:
                out *= d
        return out


def snf(matrix) -> SnfResult:
    """Smith normal form data of an integer matrix (nested lists)."""
    diag = snf_diagonal(matrix)
    return SnfResult(tuple(diag), sum(1 for d in diag if d))


def _resolve_group(gamma) -> FinAbGroup:
    if isinstance(gamma, FinAbGroup):
        return gamma
    if isinstance(gamma, Subgroup):
        return quotient(gamma)
    raise TypeError("expected a Subgroup or FinAbGroup")


def expand(matrix, gamma, nvars: int | None = None) -> list[list[int]]:
    """Integer matrix of the presentation over Z[A_Gamma].

    Each polynomial entry becomes the |A| x |A| multiplication block of its
    projection, preserving the canonical element order; an m1 x m0 matrix
    over R becomes (m1*|A|) x (m0*|A|) over Z.
    """
    group = _resolve_group(gamma)
    if isinstance(matrix, PresentedModule):
        rows = matrix.matrix
        m0 = matrix.m0
    else:
        rows = tuple(tuple(r) for r in matrix)
        m0 = len(rows[0]) if rows else 0
    N = group.order
    m1 = len(rows)
    out = [[0] * (m0 * N) for _ in range(m1 * N)]
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if entry.is_zero():
                continue
            block = mult_matrix(project_poly(entry, group))
            for a, src in enumerate(block):
                out[i * N + a][j * N:(j + 1) * N] = src
    return out


def torsion_and_betti(mod: PresentedModule, gamma) -> tuple[int, int]:
    """|Tor_Z(M ⊗ Z[A_Gamma])| and the free rank over Z, from one SNF."""
    group = _resolve_group(gamma)
    if not mod.matrix:
        return 1, mod.m0 * group.order
    res = snf(expand(mod, group))
    return res.torsion_order(), mod.m0 * group.order - res.rank


def torsion_order(mod: PresentedModule, gamma) -> int:
    """|Tor_Z(M ⊗ Z[A_Gamma])|: product of the nonzero invariant factors."""
    return torsion_and_betti(mod, gamma)[0]


def betti(mod: PresentedModule, gamma) -> int:
    """Free rank of M ⊗ Z[A_Gamma] over Z."""
    return torsion_and_betti(mod, gamma)[1]


@dataclass(frozen=True)
class GrowthSample:
    """One (Gamma, torsion, growth) record of an experiment."""

    gamma: str
    index: int
    min_norm: float
    torsion_order: int
    betti: int
    direction: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.torsion_order < 1:
            raise ValueError("torsion order is at least 1")

    @property
    def log_torsion(self) -> float:
        return int_log(self.torsion_order) if self.torsion_order > 1 else 0.0

    @property
    def growth_stat(self) -> float:
        return self.log_torsion / self.index

    CSV_HEADER = "gamma;index;min_norm;torsion_order;log_torsion;growth_stat;betti"

    def csv_row(self) -> str:
        return ";".join(
            [
                self.gamma,
                str(self.index),
                repr(self.min_norm),
                str(self.torsion_order),
                repr(self.log_torsion),
                repr(self.growth_stat),
                str(self.betti),
            ]
        )

    @classmethod
    def from_csv_row(cls, row: str) -> "GrowthSample":
        parts = row.split(";")
        return cls(
            gamma=parts[0],
            index=int(parts[1]),
            min_norm=float(parts[2]),
            torsion_order=int(parts[3]),
            betti=int(parts[6]),
        )


def growth_sample(mod: PresentedModule, gamma: Subgroup, descriptor: str | None = None) -> GrowthSample:
    """Torsion order, Betti number, and growth statistic for one subgroup."""
    group = quotient(gamma)
    tor, b = torsion_and_betti(mod, group)
    return GrowthSample(
        gamma=descriptor if descriptor is not None else str(gamma.to_json()),
        index=group.order,
        min_norm=min_norm(gamma),
        torsion_order=tor,
        betti=b,
        direction=direction_of(group).coords,
    )


def chain_torsion(cx: ChainComplex, i: int, gamma) -> int:
    """|Tor_Z(H_i(C ⊗ Z[A_Gamma]))|.

    Equals the torsion of the cokernel of the next boundary; degrees at or
    above the top have free homology and give 1.
    """
    if i < 0:
        raise ValueError("degree out of range")
    if i >= cx.top_degree:
        return 1
    return torsion_order(cx.coker_module(i), gamma)


# ---------------------------------------------------------------------------
# Classical cross-validation oracle for cyclic branched covers of knots
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _cyclotomic(k: int) -> LaurentPoly:
    """The k-th cyclotomic polynomial, by exact division of t^k - 1."""
    t = LaurentPoly.variable(0, 1)
    f = t ** k - 1
    for d in range(1, k):
        if k % d == 0:
            q = div_exact(f, _cyclotomic(d))
            assert q is not None
            f = q
    return f


def vanishes_at_root_of_unity(delta_poly: LaurentPoly, ell: int) -> bool:
    """Exact check: does delta vanish at some primitive k-th root, k | ell, k > 1?"""
    for k in range(2, ell + 1):
        if ell % k == 0 and div_exact(delta_poly, _cyclotomic(k)) is not None:
            return True
    return False


def cyclic_branched_oracle(delta_poly: LaurentPoly, ell: int) -> int:
    """Product over j = 1..ell-1 of |Delta(zeta_ell^j)|, rounded exactly.

    The classical torsion count for the ell-fold cyclic branched cover of a
    knot; requires Delta not to vanish at any ell-th root of unity.  The
    working precision is chosen so the accumulated error is below 0.25, which
    certifies the nearest-integer rounding.
    """
    if delta_poly.nvars != 1:
        raise ValueError("the oracle takes a univariate Alexander polynomial")
    if delta_poly.is_zero():
        raise ValueError("zero polynomial")
    if ell < 1:
        raise ValueError("ell must be positive")
    if ell == 1:
        return 1
    if vanishes_at_root_of_unity(delta_poly, ell):
        raise OracleDegenerateError(
            f"Delta vanishes at an {ell}-th root of unity; product formula degenerate"
        )
    digits = 30 + int(ell * max(1.0, mpmath.log10(delta_poly.one_norm() + 1)))
    for attempt in range(3):
        with mpmath.workdps(digits):
            prod = mpmath.mpf(1)
            for j in range(1, ell):
                z = mpmath.e ** (2j * mpmath.pi * j / ell)
                acc = mpmath.mpc(0)
                for exp, c in delta_poly.terms:
                    acc += c * z ** exp[0]
                prod *= abs(acc)
            nearest = int(mpmath.nint(prod))
            if abs(prod - nearest) < 0.25:
                return nearest
        digits *= 2
    raise ArithmeticError("could not certify the oracle product rounding")


def character_product(f: LaurentPoly, gamma) -> int:
    """|prod over characters of f(z)| as a certified integer.

    For a 1 x 1 presentation this is the determinant of the expanded matrix,
    hence the torsion order when f vanishes at no character.
    """
    from .groupalg import characters

    group = _resolve_group(gamma)
    chs = characters(group)
    digits = 30 + int(group.order * max(1.0, mpmath.log10(f.one_norm() + 1)))
    with mpmath.workdps(digits):
        prod = mpmath.mpf(1)
        for ch in chs:
            z = [mpmath.e ** (2j * mpmath.pi * mpmath.mpf(q.numerator) / q.denominator) for q in ch.rotations]
            acc = mpmath.mpc(0)
            for exp, c in f.terms:
                term = mpmath.mpc(c)
                for zi, e in zip(z, exp):
                    if e:
                        term *= zi ** e
                acc += term
            prod *= abs(acc)
        nearest = int(mpmath.nint(prod))
        if abs(prod - nearest) >= 0.25:
            raise ArithmeticError("could not certify the character product rounding")
    return nearest


# ---------------------------------------------------------------------------
# Koszul-style balance |H_1| = |H_0| for commuting operator pairs
# ---------------------------------------------------------------------------


def koszul_orders(P: Sequence[Sequence[int]], Q: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Orders (|H_1|, |H_0|) of 0 -> B -> B^2 -> B -> 0 for commuting P, Q.

    The maps are a -> (-Qa, Pa) and (a, b) -> Pa + Qb on B = Z^r.  Requires
    P injective and finite homology (P, Q jointly of full rank); the two
    orders agree by the alternating-product argument.
    """
    r = len(P)
    if any(len(row) != r for row in P) or len(Q) != r or any(len(row) != r for row in Q):
        raise ValueError("P and Q must be square of equal size")
    for i in range(r):
        for j in range(r):
            pq = sum(P[i][k] * Q[k][j] for k in range(r))
            qp = sum(Q[i][k] * P[k][j] for k in range(r))
            if pq != qp:
                raise ValueError("operators do not commute")
    if bareiss_det(P) == 0:
        raise ValueError("P must be injective")
    d1 = [list(P[i]) + list(Q[i]) for i in range(r)]
    res = snf(d1)
    if res.rank < r:
        raise ValueError("homology is infinite (d1 not of full rank)")
    h0 = res.torsion_order()
    ker = kernel_basis(d1)
    d2_cols = [[-Q[i][j] for i in range(r)] + [P[i][j] for i in range(r)] for j in range(r)]
    K = [[ker[c][i] for c in range(len(ker))] for i in range(2 * r)]
    coords = []
    for col in d2_cols:
        x = solve_integer(K, col)
        if x is None:
            raise ArithmeticError("image of d2 not inside ker(d1)")
        coords.append(x)
    h1 = abs(bareiss_det(coords))
    if h1 == 0:
        raise ValueError("homology is infinite (H_1 has positive rank)")
    return h1, h0
