"""Side lemmas of the paper, checked by the tests and called by no growth run.

The subgroup ideals of Z[A] with their sums, intersections and volumes (the
order identity |Z[A]/(alpha(B) + beta(B))| = |B|^(|A|/|B|)), the Koszul
balance |H_1| = |H_0| for commuting operators, the pseudo-zero test
Delta_0 = 1, and the random groups of the identity checks.  Ideals are
`lattices.Subgroup`s of Z^|A|, so canonical Hermite rows; a sum is the
`Subgroup` of both row sets, an intersection comes from `hnf_rows`.

Also here, the small constructions the tests build on and no command
needs: a group from its invariant factors with its identity, addition and
element orders, coordinates in a Hermite basis and lattice membership,
direct sums of presentations, and the image of a word under rho.
"""

import math
import random
from typing import Sequence

from torgrowth.groupalg import mult_matrix
from torgrowth.intlinalg import bareiss_det, hnf_rows, kernel_basis, matmul
from torgrowth.lattices import FinAbGroup, Subgroup
from torgrowth.laurent import LaurentPoly
from torgrowth.presmod import GroupPresentation, PresentedModule, alexander, rank
from torgrowth.torsion import snf


def from_invariant_factors(factors: Sequence[int]) -> FinAbGroup:
    """Z/d1 x ... x Z/dk for a divisibility chain d1 | ... | dk: the quotient
    of Z^k by the diagonal lattice, with the identity as its projection."""
    factors = [int(d) for d in factors]
    if any(d < 1 for d in factors):
        raise ValueError("invariant factors must be positive")
    for a, b in zip(factors, factors[1:]):
        if b % a:
            raise ValueError("invariant factors must form a divisibility chain")
    n = len(factors)
    eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    return FinAbGroup(n, factors, eye)


def identity(group: FinAbGroup) -> tuple[int, ...]:
    return (0,) * group.rank


def add(group: FinAbGroup, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """a + b, reduced digit by digit; an element of the wrong length is a ValueError."""
    for e in (a, b):
        if len(e) != group.rank:
            raise ValueError(
                f"element {tuple(e)} has {len(e)} digits; the group has rank {group.rank}")
    return tuple((x + y) % d for x, y, d in zip(a, b, group.invariant_factors))


def order_of(group: FinAbGroup, elem: Sequence[int]) -> int:
    """The order of a reduced element of the group."""
    o = 1
    for x, d in zip(elem, group.invariant_factors):
        o = math.lcm(o, d // math.gcd(x, d))
    return o


def hnf_coordinates(basis_rows, target) -> list[int] | None:
    """Coordinates of `target` in a row-style HNF basis, or None.

    Back-substitution along the pivot columns; integer coordinates exist iff
    the vector lies in the lattice.
    """
    v = [int(x) for x in target]
    coords = []
    for row in basis_rows:
        j = next(i for i, x in enumerate(row) if x)
        q, r = divmod(v[j], row[j])
        if r:
            return None
        if q:
            v = [x - q * y for x, y in zip(v, row)]
        coords.append(q)
    if any(v):
        return None
    return coords


def contains(lattice: Subgroup, vec: Sequence[int]) -> bool:
    """Whether `vec` lies in the lattice, read off its Hermite rows."""
    return hnf_coordinates(lattice.gens, vec) is not None


def direct_sum(a: PresentedModule, b: PresentedModule) -> PresentedModule:
    """The block-diagonal presentation of a + b."""
    if a.nvars != b.nvars:
        raise ValueError("dimension mismatch")
    z = LaurentPoly.zero(a.nvars)
    rows = [tuple(r) + (z,) * b.m0 for r in a.matrix]
    rows += [(z,) * a.m0 + tuple(r) for r in b.matrix]
    return PresentedModule(a.nvars, tuple(rows), a.m0 + b.m0)


def rho_of_word(pres: GroupPresentation, word: Sequence[int]) -> LaurentPoly:
    """The image of a word under the abelianization map rho."""
    out = LaurentPoly.one(pres.nvars)
    for letter in word:
        img = pres.rho[abs(letter) - 1]
        out = out * (img if letter > 0 else img ** -1)
    return out


def random_group(rng: random.Random, max_order: int) -> FinAbGroup:
    """A random divisibility chain of one to three factors, order in [2, max_order]."""
    while True:
        r = rng.randint(1, 3)
        factors = [rng.choice([2, 2, 3, 4, 5, 6])]
        for _ in range(r - 1):
            factors.append(factors[-1] * rng.choice([1, 1, 2, 3]))
        if math.prod(factors) <= max_order:
            return from_invariant_factors(factors)


def subgroup_closure(group: FinAbGroup, gens: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """All elements of the subgroup of `group` generated by `gens`, sorted.

    <g_1, ..., g_k> = <g_1> + ... + <g_k>: add each generator until the set
    stops growing.
    """
    elems = {identity(group)}
    for g in gens:
        while not elems >= (step := {add(group, a, g) for a in elems}):
            elems |= step
    return sorted(elems)


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
    B = subgroup_closure(group, b_gens)
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
        one_minus_b[group.index_of(identity(group))] = 1
        one_minus_b[group.index_of(add(group, identity(group), b))] -= 1  # b may be unreduced
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
    """Lattice sum: the Hermite basis of all the generators."""
    if not lats:
        raise ValueError("empty sum")
    if any(lat.nvars != lats[0].nvars for lat in lats):
        raise ValueError("ambient rank mismatch")
    return Subgroup(lats[0].nvars, [v for lat in lats for v in lat.gens])


def intersect_ideals(lats: Sequence[Subgroup]) -> Subgroup:
    """Pairwise lattice intersection: the rows (x, x) for x in acc and (y, 0)
    for y in lat span {(a + b, a)}, so the Hermite rows whose first block is
    zero carry a canonical basis of acc ∩ lat in their second block."""
    if not lats:
        raise ValueError("empty intersection")
    if any(lat.nvars != lats[0].nvars for lat in lats):
        raise ValueError("ambient rank mismatch")
    n, acc = lats[0].nvars, lats[0]
    for lat in lats[1:]:
        rows = [x + x for x in acc.gens] + [y + (0,) * n for y in lat.gens]
        acc = Subgroup(n, [r[n:] for r in hnf_rows(rows) if not any(r[:n])])
    return acc


def koszul_orders(P: Sequence[Sequence[int]], Q: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Orders (|H_1|, |H_0|) of 0 -> B -> B^2 -> B -> 0 for commuting P, Q.

    The maps are a -> (-Qa, Pa) and (a, b) -> Pa + Qb on B = Z^r.  Requires
    P injective and finite homology (P, Q jointly of full rank); the two
    orders agree by the alternating-product argument.
    """
    r = len(P)
    if any(len(row) != r for row in P) or len(Q) != r or any(len(row) != r for row in Q):
        raise ValueError("P and Q must be square of equal size")
    if matmul(P, Q) != matmul(Q, P):
        raise ValueError("operators do not commute")
    if bareiss_det(P) == 0:
        raise ValueError("P must be injective")
    d1 = [list(P[i]) + list(Q[i]) for i in range(r)]
    h0, d1_rank = snf(d1)
    if d1_rank < r:
        raise ValueError("homology is infinite (d1 not of full rank)")
    # |det| of the coordinates does not depend on the basis of ker(d1)
    basis = kernel_basis(d1, 2 * r)
    coords = []
    for j in range(r):
        x = hnf_coordinates(basis, [-Q[i][j] for i in range(r)] + [P[i][j] for i in range(r)])
        if x is None:
            raise ArithmeticError("image of d2 not inside ker(d1)")
        coords.append(x)
    h1 = abs(bareiss_det(coords))
    if h1 == 0:
        raise ValueError("homology is infinite (H_1 has positive rank)")
    return h1, h0


def is_pseudo_zero_torsion(mod: PresentedModule) -> bool:
    """Pseudo-zero test for torsion modules: Delta_0(M) = 1.

    Raises for modules of positive rank, where the criterion does not apply.
    """
    if rank(mod) != 0:
        raise ValueError("pseudo-zero criterion applies to torsion modules only")
    return alexander(mod, 0).is_one()
