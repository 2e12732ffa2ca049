import cmath
import itertools
import math
import random
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

from lemmas import (alpha_ideal, beta_ideal, gram_det, intersect_ideals, norm_element,
                    subgroup_closure, sum_ideals, vol)
from torgrowth.groupalg import character_exponents, mult_matrix, project_poly
from torgrowth.intlinalg import bareiss_det, matmul
from torgrowth.lattices import FinAbGroup, Subgroup, quotient
from torgrowth.laurent import variables

t, = variables(1)
t1, t2 = variables(2)

Z2 = FinAbGroup.from_invariant_factors([2])
Z3 = FinAbGroup.from_invariant_factors([3])
Z4 = FinAbGroup.from_invariant_factors([4])
Z22 = FinAbGroup.from_invariant_factors([2, 2])


def random_groups(seed: int, count: int = 30) -> list[FinAbGroup]:
    """Random divisibility chains of order <= 48, led by two trivial groups."""
    rng = random.Random(seed)
    groups = [FinAbGroup.from_invariant_factors([]), quotient(Subgroup.diagonal(2, 1))]
    while len(groups) < count:
        factors = [rng.choice([2, 3, 4, 5, 6])]
        for _ in range(rng.randint(0, 2)):
            factors.append(factors[-1] * rng.choice([1, 2]))
        if math.prod(factors) <= 48:
            groups.append(FinAbGroup.from_invariant_factors(factors))
    return groups


def random_elem(rng: random.Random, A: FinAbGroup) -> tuple[int, ...]:
    return tuple(rng.choice([0, 0, -2, -1, 1, 3]) for _ in range(A.order))


def times(m: list[list[int]], v) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in m)


def convolution(A: FinAbGroup, a, b) -> tuple[int, ...]:
    """a*b in Z[A] by its definition: sum of a_g b_h over g + h."""
    out = [0] * A.order
    for g, x in zip(A.elements(), a):
        for h, y in zip(A.elements(), b):
            out[A.index_of(A.add(g, h))] += x * y
    return tuple(out)


class TestTranslation:
    def test_matches_element_addition(self):
        for A in random_groups(50):
            elems = A.elements()
            for h in elems:
                assert A.translation(h) == [A.index_of(A.add(h, g)) for g in elems]

    def test_product_is_matrix_times_vector(self):
        rng = random.Random(51)
        for A in random_groups(51):
            a, b = random_elem(rng, A), random_elem(rng, A)
            assert times(mult_matrix(a, A), b) == convolution(A, a, b)

    def test_wrong_length_element_is_rejected(self):
        for call in (
            lambda: Z22.translation((1,)),
            lambda: Z22.add((1,), (1, 1)),
        ):
            with pytest.raises(ValueError, match="rank 2"):
                call()

    def test_mult_matrix_rejects_wrong_length(self):
        for coeffs in ((), (1, 0, 0), (1, 0, 0, 0, 0)):
            with pytest.raises(ValueError, match="order 4"):
                mult_matrix(coeffs, Z22)

    def test_commutative_and_associative(self):
        # the matrices commute, and the matrix of a*b is the product of theirs
        rng = random.Random(52)
        for A in random_groups(52):
            a, b = random_elem(rng, A), random_elem(rng, A)
            ma, mb = mult_matrix(a, A), mult_matrix(b, A)
            assert matmul(ma, mb) == matmul(mb, ma)
            assert mult_matrix(times(ma, b), A) == matmul(ma, mb)


class TestProjectPoly:
    def test_linear(self):
        assert project_poly(t - 2, Z3) == (-2, 1, 0)

    def test_cube_is_identity(self):
        assert project_poly(t ** 3, Z3) == (1, 0, 0)

    def test_basis_element(self):
        e = project_poly(t1 * t2, Z22)
        assert e == tuple(int(g == (1, 1)) for g in Z22.elements())

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project_poly(t1, Z3)


class TestMultMatrix:
    def test_norm_like_element(self):
        assert mult_matrix((1, 1), Z2) == [[1, 1], [1, 1]]

    def test_identity(self):
        assert mult_matrix((1, 0, 0), Z3) == [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
        ]

    def test_shift_is_permutation(self):
        m = mult_matrix((0, 1, 0), Z3)
        assert sorted(map(tuple, m)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        # cyclic: no fixed basis vector
        assert all(m[i][i] == 0 for i in range(3))

    def test_det_equals_character_product(self):
        # chi_c(g) = exp(2*pi*i * k/e) for the pairing k = sum_i c_i g_i e/d_i mod e;
        # on these groups Z^n -> A is the digit map, so k = W[c] . g
        rng = random.Random(30)
        for _ in range(25):
            A = FinAbGroup.from_invariant_factors(
                rng.choice([[2], [3], [4], [2, 2], [2, 4], [6]])
            )
            e, elems = A.exponent, A.elements()
            pairing = character_exponents(A) @ np.array(elems).T % e
            assert pairing.tolist() == [
                [sum(ci * gi * (e // d) for ci, gi, d in zip(c, g, A.invariant_factors)) % e
                 for g in elems]
                for c in elems
            ]
            coeffs = tuple(rng.randint(-3, 3) for _ in range(A.order))
            d = bareiss_det(mult_matrix(coeffs, A))
            prod = 1.0 + 0j
            for row in pairing.tolist():
                prod *= sum(c * cmath.exp(2j * cmath.pi * k / e) for c, k in zip(coeffs, row))
            if d == 0:
                assert abs(prod) < 1e-6 * (1 + max(map(abs, coeffs))) ** A.order
            else:
                assert abs(abs(d) - abs(prod)) / abs(d) < 1e-6


class TestIdeals:
    def test_full_subgroup(self):
        al = alpha_ideal(Z2, [(1,)])
        be = beta_ideal(Z2, [(1,)])
        assert al.gens == ((1, 1),)
        assert be.rank() == 1 and be.contains((1, -1))
        assert vol(al) == pytest.approx(math.sqrt(2))

    def test_trivial_subgroup(self):
        assert alpha_ideal(Z2, []).rank() == 2
        assert beta_ideal(Z2, []).rank() == 0

    def test_half_subgroup_of_z4(self):
        assert alpha_ideal(Z4, [(2,)]).rank() == 2
        assert beta_ideal(Z4, [(2,)]).rank() == 2
        assert beta_ideal(Z4, [(6,)]) == beta_ideal(Z4, [(2,)])

    def test_norm_element(self):
        u = norm_element(Z4, subgroup_closure(Z4, [(2,)]))
        assert u == (1, 0, 1, 0)

    def test_annihilation(self):
        rng = random.Random(31)
        for _ in range(20):
            A = FinAbGroup.from_invariant_factors(rng.choice([[4], [6], [2, 2], [2, 4]]))
            bgens = [tuple(rng.randrange(d) for d in A.invariant_factors)]
            al = alpha_ideal(A, bgens)
            be = beta_ideal(A, bgens)
            for va in al.gens:
                for vb in be.gens:
                    assert not any(times(mult_matrix(va, A), vb))


class TestOrderIdentities:
    @pytest.mark.parametrize(
        "factors,bgens",
        [([2], [(1,)]), ([4], [(2,)]), ([2, 2], [(1, 0)]), ([2, 6], [(1, 3)]), ([9], [(3,)])],
    )
    def test_exact_order(self, factors, bgens):
        A = FinAbGroup.from_invariant_factors(factors)
        B = subgroup_closure(A, bgens)
        al, be = alpha_ideal(A, bgens), beta_ideal(A, bgens)
        assert al.rank() == A.order // len(B)
        got = sum_ideals([al, be]).index()
        assert got == len(B) ** (A.order // len(B))

    def test_sum_with_zero(self):
        L = alpha_ideal(Z4, [(2,)])
        zero = Subgroup(4, [])
        assert sum_ideals([L, zero]) == L

    def test_intersect_self(self):
        L = beta_ideal(Z4, [(2,)])
        assert intersect_ideals([L, L]) == L

    def test_intersect_against_membership(self):
        rng = random.Random(35)
        for _ in range(60):
            n = rng.choice([2, 3])
            lats = [
                Subgroup(
                    n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n))]
                )
                for _ in range(rng.choice([2, 3]))
            ]
            got = intersect_ideals(lats)
            assert got == Subgroup(n, got.gens)
            for v in itertools.product(range(-6, 7), repeat=n):
                assert got.contains(v) == all(L.contains(v) for L in lats)

    def test_coordinate_subgroups_rank(self):
        alsum = sum_ideals([alpha_ideal(Z22, [(1, 0)]), alpha_ideal(Z22, [(0, 1)])])
        assert alsum.rank() == 3

    def test_multi_subgroup_bound(self):
        rng = random.Random(32)
        for _ in range(15):
            A = FinAbGroup.from_invariant_factors(rng.choice([[4], [6], [2, 2], [8], [2, 4]]))
            b1 = [tuple(rng.randrange(d) for d in A.invariant_factors)]
            b2 = [tuple(rng.randrange(d) for d in A.invariant_factors)]
            B1, B2 = subgroup_closure(A, b1), subgroup_closure(A, b2)
            al = sum_ideals([alpha_ideal(A, b1), alpha_ideal(A, b2)])
            be = intersect_ideals([beta_ideal(A, b1), beta_ideal(A, b2)])
            assert be.perp() == al
            got = sum_ideals([al, be]).index()
            bound = len(B1) ** (A.order // len(B1)) * len(B2) ** (A.order // len(B2))
            assert got <= bound


class TestVolume:
    def test_standard(self):
        assert vol(Subgroup.diagonal(2, 1)) == 1.0

    def test_quotient_order_example(self):
        inner = Subgroup(2, [[2, 0], [0, 3]])
        assert inner.index() == 6

    def test_primitivity_identity(self):
        # vol(L)^2 = |Z^n / (L + L^perp)| for saturated L
        rng = random.Random(33)
        for _ in range(40):
            n = rng.randint(2, 5)
            raw = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n - 1))]
            from torgrowth.intlinalg import kernel_basis

            ker = kernel_basis(raw, n)  # saturated by construction
            L = Subgroup(n, [list(c) for c in ker])
            if L.rank() in (0, n):
                continue
            comp = L.perp()
            total = sum_ideals([L, comp])
            assert gram_det(L) == total.index()


class TestCharacters:
    def test_count_and_values_z2(self):
        # chi(t) = exp(2*pi*i * W/2) = (-1)^W
        vals = sorted((-1) ** w for w in character_exponents(Z2)[:, 0].tolist())
        assert vals == [-1, 1]

    def test_rotations_z3(self):
        rots = sorted(Fraction(w, Z3.exponent) for w in character_exponents(Z3)[:, 0].tolist())
        assert rots == [Fraction(0), Fraction(1, 3), Fraction(2, 3)]

    def test_exponent_matrix_is_the_dual_group(self):
        # rows vanish on Gamma, are pairwise distinct, and the first is trivial
        for G in (Subgroup(2, ((1, -1), (1, 1))), Subgroup.diagonal(2, 6),
                  Subgroup(3, ((2, 0, 0), (1, 3, 0), (0, 1, 4)))):
            A = quotient(G)
            W = character_exponents(A)
            assert W.shape == (A.order, G.nvars)
            assert not (W @ np.array(G.gens).T % A.exponent).any()
            assert len(set(map(tuple, W.tolist()))) == A.order and not W[0].any()

    def test_exponent_matrix_follows_the_element_order(self):
        # W comes from the invariant factors alone; row c must still be the
        # character of elements()[c]: W[c, j] = sum_i c_i a_i e/d_i mod e
        # for the digits a of the image of t_j
        rng = random.Random(30)
        gammas = [Subgroup.diagonal(2, 1), Subgroup.cyclic(12), Subgroup.diagonal(2, 6),
                  Subgroup.diagonal(3, 3), Subgroup(2, ((1, -1), (0, 8))),
                  Subgroup(3, ((2, 0, 0), (1, 3, 0), (0, 1, 4)))]
        while len(gammas) < 30:
            n = rng.randint(1, 3)
            G = Subgroup(n, [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            if 1 <= G.index() <= 200:
                gammas.append(G)
        for G in gammas:
            A, eye = quotient(G), np.eye(G.nvars, dtype=int).tolist()
            e = A.exponent
            want = [[sum(c * a * (e // d) for c, a, d in zip(elem, A.project(v), A.invariant_factors)) % e
                     for v in eye] for elem in A.elements()]
            assert character_exponents(A).tolist() == want, G
