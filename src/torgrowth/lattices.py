"""Sublattices of Z^n, the finite abelian quotients of the full-rank ones.

`Subgroup` is the package's one lattice type: the finite-index subgroups
Gamma of the growth experiments and their orthogonal lattices.  It is
its canonical Hermite basis, so equal lattices are equal values.  Also
here: the quotient A = Z^n/Gamma with its projection map (rows of a Smith
row transform), exact shortest-vector norms (Lagrange in rank <= 2,
bounded enumeration in rank 3-4), coordinate orders and unit directions
(float tuples), and the converging families Gamma_{s,j} = (k)^perp + j*k.

No inverse is needed here: the enumeration box reads R^2·adj(G)_ii / det(G)
off the Gram matrix G, and adj(G)_ii is the principal minor of G without
row and column i.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

from .intlinalg import (
    bareiss_det, hnf_rows, kernel_basis, matmul, nearest_div, snf_with_transforms,
)

MIN_NORM_MAX_DIM = 4
_ENUM_BUDGET = 2_000_000


class SearchBudgetExceeded(RuntimeError):
    """A bounded deterministic search ran out of its configured budget."""


@dataclass(frozen=True)
class Subgroup:
    """The subgroup of Z^nvars spanned by the given vectors.

    `gens` holds the canonical Hermite rows of those vectors, so two
    subgroups are equal (and hash equal) iff they are the same lattice.
    """

    nvars: int
    gens: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("nvars must be positive")
        if any(len(g) != self.nvars for g in self.gens):
            raise ValueError("generator has wrong length")
        object.__setattr__(self, "gens", tuple(map(tuple, hnf_rows(self.gens))))

    @classmethod
    def cyclic(cls, ell: int) -> "Subgroup":
        """ell*Z inside Z^1."""
        if ell < 0:
            raise ValueError(f"a cyclic subgroup needs ell >= 0, not {ell}")
        return cls(1, ((ell,),))

    @classmethod
    def diagonal(cls, nvars: int, d: int) -> "Subgroup":
        """d*Z^n inside Z^n."""
        if d < 0:
            raise ValueError(f"a diagonal subgroup needs d >= 0, not {d}")
        gens = tuple(
            tuple(d if i == j else 0 for i in range(nvars)) for j in range(nvars)
        )
        return cls(nvars, gens)

    def rank(self) -> int:
        return len(self.gens)

    def index(self) -> int:
        """|Z^nvars / Gamma|: the product of the Hermite pivots, 0 below full rank."""
        if len(self.gens) < self.nvars:
            return 0
        return math.prod(row[i] for i, row in enumerate(self.gens))

    def perp(self) -> "Subgroup":
        """The saturated lattice {x : x·g = 0 for every g in Gamma}, in Hermite form."""
        return Subgroup(self.nvars, tuple(kernel_basis(self.gens, self.nvars)))

    def to_json(self) -> list[list[int]]:
        return [list(g) for g in self.gens]

    @classmethod
    def from_json(cls, data) -> "Subgroup":
        """Generators from a JSON list of integer lists."""
        if not isinstance(data, list) or not all(
            isinstance(g, list) and all(type(x) is int for x in g) for g in data
        ):
            raise ValueError("generators must be a JSON list of integer lists")
        if not data:
            raise ValueError("empty generator list")
        return cls(len(data[0]), tuple(map(tuple, data)))


class FinAbGroup:
    """A finite abelian group A = Z^n / Gamma in invariant-factor form.

    Elements are digit tuples over the invariant factors d1 | d2 | ... (all
    >= 2), enumerated lexicographically.  Of a Smith form's diagonal `dfull`
    and row transform U, the rows with d_i > 1 realize Z^n -> A, v -> (U_i·v mod d_i).
    """

    def __init__(self, nvars: int, dfull: Sequence[int], U):
        dfull = [int(d) for d in dfull]
        if any(d == 0 for d in dfull) or len(dfull) < nvars:
            raise ValueError("quotient is infinite: subgroup not of full rank")
        self.nvars = nvars
        kept = [(d, list(map(int, row))) for d, row in zip(dfull, U) if d > 1]
        self.invariant_factors = tuple(d for d, _ in kept)
        self._U = [row for _, row in kept]
        self.order = math.prod(self.invariant_factors)

    @property
    def rank(self) -> int:
        """Number of nontrivial cyclic summands."""
        return len(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @cached_property
    def _elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*(range(d) for d in self.invariant_factors)))

    def elements(self) -> list[tuple[int, ...]]:
        """All elements, lexicographic over invariant-factor digit vectors."""
        return self._elements

    def index_of(self, elem: Sequence[int]) -> int:
        """Position of a reduced element in `elements()`, read in mixed radix."""
        e = tuple(elem)
        if len(e) != self.rank or not all(0 <= x < d for x, d in zip(e, self.invariant_factors)):
            raise ValueError(
                f"{e} is not a reduced element of a group with invariant factors "
                f"{self.invariant_factors}"
            )
        return reduce(lambda i, xd: i * xd[1] + xd[0], zip(e, self.invariant_factors), 0)

    def translation(self, h: Sequence[int]) -> list[int]:
        """Index of h + g for every element g, in element order.

        Mixed-radix arithmetic over the invariant factors, no lookups.
        """
        if len(h) != self.rank:
            raise ValueError(
                f"element {tuple(h)} has {len(h)} digits; the group has rank {self.rank}")
        idx = [0]
        for d, x in zip(self.invariant_factors, h):
            idx = [i * d + (k + x) % d for i in idx for k in range(d)]
        return idx

    def project(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Image of an integer vector under Z^n -> A."""
        if len(vec) != self.nvars:
            raise ValueError("vector has wrong length")
        return tuple(sum(u * int(x) for u, x in zip(row, vec)) % d
                     for row, d in zip(self._U, self.invariant_factors))

    def order_of(self, elem: Sequence[int]) -> int:
        o = 1
        for x, d in zip(elem, self.invariant_factors):
            o = math.lcm(o, d // math.gcd(x, d))
        return o

    def __repr__(self) -> str:
        body = " x ".join(f"Z/{d}" for d in self.invariant_factors) or "0"
        return f"FinAbGroup({body})"


def quotient(gamma: Subgroup) -> FinAbGroup:
    """Invariant-factor decomposition of Z^n / Gamma for full-rank Gamma."""
    n = gamma.nvars
    # the Hermite rows are the columns; FinAbGroup rejects fewer than n of them
    mat = [[g[i] for g in gamma.gens] for i in range(n)]
    D, U = snf_with_transforms(mat)
    return FinAbGroup(n, [D[i][i] for i in range(gamma.rank())], U)


def size_reduce(basis: list[list[int]]) -> list[list[int]]:
    """The same lattice's basis after pairwise size reduction (Lagrange's
    reduction in rank 2), shortest vector first.  The vectors must be
    independent (a Hermite basis is), so no step makes a zero vector."""
    vecs = [list(v) for v in basis]

    def norm2(v):
        return sum(x * x for x in v)

    changed = True
    while changed:
        changed = False
        vecs.sort(key=norm2)
        for i in range(len(vecs)):
            for j in range(len(vecs)):
                if i == j:
                    continue
                mu = nearest_div(sum(a * b for a, b in zip(vecs[i], vecs[j])), norm2(vecs[j]))
                if mu:
                    cand = [a - mu * b for a, b in zip(vecs[i], vecs[j])]
                    if norm2(cand) < norm2(vecs[i]):
                        vecs[i] = cand
                        changed = True
    return vecs


def min_norm_sq(gamma: Subgroup) -> int:
    """Exact squared norm of a shortest nonzero vector of Gamma.

    After pairwise size reduction a basis of rank <= 2 is Lagrange-reduced,
    so its first vector is a shortest one; rank 3 and 4 take a bounded
    exhaustive enumeration.  Guarded to ambient dimension <= 4 (desk scale).
    """
    if gamma.nvars > MIN_NORM_MAX_DIM:
        raise ValueError(f"min_norm enumeration is guarded to n <= {MIN_NORM_MAX_DIM}")
    if not gamma.gens:
        raise ValueError("zero lattice has no shortest vector")
    basis = size_reduce(gamma.gens)
    r = len(basis)
    if r <= 2:
        return sum(x * x for x in basis[0])
    gram = matmul(basis, [list(c) for c in zip(*basis)])
    radius2 = min(gram[i][i] for i in range(r))
    # coefficient box from the inverse Gram: c^T G c <= R^2 implies
    # c_i^2 <= R^2 * (G^-1)_ii = R^2 * adj(G)_ii / det G, where adj(G)_ii is
    # the principal minor of G without row and column i
    det = bareiss_det(gram)
    minors = [bareiss_det([g[:i] + g[i + 1:] for k, g in enumerate(gram) if k != i])
              for i in range(r)]
    bounds = [math.isqrt(radius2 * m // det) + 1 for m in minors]
    total = math.prod(2 * b + 1 for b in bounds)
    if total > _ENUM_BUDGET:
        raise SearchBudgetExceeded(
            f"shortest-vector enumeration box of size {total} exceeds budget"
        )
    best = radius2
    for coeffs in itertools.product(*(range(-b, b + 1) for b in bounds)):
        if not any(coeffs):
            continue
        q = 0
        for i in range(r):
            ci = coeffs[i]
            if ci:
                q += ci * ci * gram[i][i]
                for j in range(i + 1, r):
                    if coeffs[j]:
                        q += 2 * ci * coeffs[j] * gram[i][j]
        if 0 < q < best:
            best = q
    return best


def min_norm(gamma: Subgroup) -> float:
    """Euclidean norm of a shortest nonzero lattice vector."""
    return math.sqrt(min_norm_sq(gamma))


def coordinate_order(group: FinAbGroup, i: int) -> int:
    """Order of the image of the i-th standard basis vector in A."""
    if not 0 <= i < group.nvars:
        raise ValueError("coordinate index out of range")
    e = [0] * group.nvars
    e[i] = 1
    return group.order_of(group.project(e))


def perp(k: Sequence[int]) -> Subgroup:
    """The saturated rank n-1 lattice {m : k·m = 0}."""
    k = tuple(int(x) for x in k)
    if not any(k):
        raise ValueError("perp of the zero vector is not a lattice of rank n-1")
    return Subgroup(len(k), (k,)).perp()


def gamma_sj(k: Sequence[int], j: int) -> Subgroup:
    """The finite-index subgroup (k)^perp + j*k, of index j*|k|^2.

    Requires coprime entries; the quotient is cyclic of order j*|k|^2 via
    m -> m·k (mod j*|k|^2).
    """
    k = tuple(int(x) for x in k)
    if j < 1:
        raise ValueError("j must be a positive integer")
    if reduce(math.gcd, k) != 1:
        raise ValueError("entries of k must be coprime (index formula fails otherwise)")
    base = perp(k)
    jk = tuple(j * x for x in k)
    return Subgroup(len(k), base.gens + (jk,))


def unit_vector(vec: Sequence[float]) -> tuple[float, ...]:
    """`vec` over its Euclidean norm, for finite nonnegative coordinates not all 0."""
    xs = [float(x) for x in vec]
    if not all(map(math.isfinite, xs)):
        raise ValueError("direction coordinates must be finite")
    if any(x < 0 for x in xs):
        raise ValueError("direction coordinates must be nonnegative")
    try:
        n = math.sqrt(sum(x ** 2 for x in xs))
    except OverflowError:
        n = math.inf
    if any(xs) and not 1e-150 < n < math.inf:  # squares past the normal float range
        top = max(xs)
        xs = [x / top for x in xs]
        n = math.sqrt(sum(x ** 2 for x in xs))
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    return tuple(x / n for x in xs)


def direction_of(group: FinAbGroup) -> tuple[float, ...]:
    """Unit vector along the coordinate orders (d_1(Gamma), ..., d_n(Gamma))."""
    return unit_vector([coordinate_order(group, i) for i in range(group.nvars)])


def lawton_norm(k: Sequence[int]) -> float:
    """The quantity <k> = <k^perp>: shortest nonzero norm of k's orthogonal
    lattice; +inf in one variable, where the orthogonal lattice is zero."""
    if len(k) == 1:
        return math.inf
    return min_norm(perp(k))


def converging_k_sequence(kappa: Sequence[float], s: int, max_norm: int = 80) -> tuple[int, ...]:
    """Deterministic search for k with positive coprime entries, <k^perp> > s,
    and direction of (1/k_1, ..., 1/k_n) within 1/s of the unit vector kappa
    (enforced when kappa is interior), in increasing max-norm.
    """
    n = len(kappa)
    if s < 1:
        raise ValueError("s must be a positive integer")
    if n == 1:
        return (1,)
    interior = all(x > 0 for x in kappa)
    for mnorm in range(1, max_norm + 1):
        for k in itertools.product(range(1, mnorm + 1), repeat=n):
            if max(k) != mnorm:
                continue
            if reduce(math.gcd, k) != 1:
                continue
            if interior:
                inv_dir = unit_vector([1.0 / x for x in k])
                if math.sqrt(sum((a - b) ** 2 for a, b in zip(inv_dir, kappa))) >= 1.0 / s:
                    continue
            if lawton_norm(k) <= s:
                continue
            return k
    raise SearchBudgetExceeded(
        f"no admissible k with max-norm <= {max_norm} for s={s}"
    )
