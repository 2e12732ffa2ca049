import itertools
import math
import random

import pytest

from lemmas import contains, identity, order_of, subgroup_closure
from torgrowth.intlinalg import hnf_rows
from torgrowth.lattices import (
    SearchBudgetExceeded,
    Subgroup,
    converging_k_sequence,
    coordinate_order,
    direction_of,
    gamma_sj,
    lawton_norm,
    min_norm,
    min_norm_sq,
    perp,
    quotient,
    unit_vector,
)


class TestQuotient:
    def test_two_by_two(self):
        A = quotient(Subgroup(2, ((2, 0), (0, 2))))
        assert A.invariant_factors == (2, 2)
        assert A.order == 4

    def test_skew(self):
        A = quotient(Subgroup(2, ((1, -1), (1, 1))))
        assert A.invariant_factors == (2,)
        assert A.order == 2

    def test_cyclic(self):
        assert quotient(Subgroup.cyclic(5)).invariant_factors == (5,)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            quotient(Subgroup(2, ((1, 1),)))

    def test_projection_surjective_kernel_gamma(self):
        rng = random.Random(20)
        for _ in range(30):
            n = rng.choice([1, 2, 3])
            while True:
                gens = tuple(
                    tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)
                )
                try:
                    G = Subgroup(n, gens)
                    A = quotient(G)
                    break
                except ValueError:
                    continue
            seen = set()
            for _ in range(60):
                v = [rng.randint(-8, 8) for _ in range(n)]
                a = A.project(v)
                seen.add(a)
                assert (a == identity(A)) == contains(G, v)
            # surjective: the images of e_1, ..., e_n generate A
            images = [A.project([int(i == j) for j in range(n)]) for i in range(n)]
            assert len(subgroup_closure(A, images)) == A.order
            assert len(A.elements()) == A.order

    def test_order_equals_det(self):
        rng = random.Random(21)
        for _ in range(50):
            n = rng.choice([1, 2, 3])
            gens = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
            from torgrowth.intlinalg import bareiss_det

            d = abs(bareiss_det([[g[i] for g in gens] for i in range(n)]))
            G = Subgroup(n, gens)
            if d == 0:
                with pytest.raises(ValueError):
                    quotient(G)
            else:
                assert quotient(G).order == d


class TestSubgroup:
    def test_lattice_index(self):
        assert Subgroup(2, ((2, 0), (0, 3))).index() == 6
        assert Subgroup(2, ((1, 1), (-1, 1))).index() == 2
        assert Subgroup(2, ((1, 1),)).index() == 0

    def test_index_is_the_smith_quotient_order(self):
        # Hermite pivots against Smith invariant factors, on random Gamma in
        # 1-3 dimensions with one generator fewer than n up to one more
        rng = random.Random(24)
        for _ in range(200):
            n = rng.randint(1, 3)
            gens = tuple(
                tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(n - 1, n + 1))
            )
            G = Subgroup(n, gens)
            try:
                order = quotient(G).order
            except ValueError:
                assert G.index() == 0, gens
            else:
                assert G.index() == order > 0, gens

    def test_subgroup_is_canonical(self):
        # shuffled generators plus integer combinations of them give the same
        # lattice; a vector outside it gives another one
        rng = random.Random(25)
        for _ in range(200):
            n = rng.randint(1, 3)
            vecs = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(0, 4))]
            L = Subgroup(n, vecs)
            assert L.gens == tuple(map(tuple, hnf_rows(vecs)))
            assert all(contains(L, v) for v in vecs)
            more = vecs[:]
            rng.shuffle(more)
            for _ in range(rng.randint(1, 2)):
                cs = [rng.randint(-3, 3) for _ in vecs]
                more.append([sum(c * v[i] for c, v in zip(cs, vecs)) for i in range(n)])
            assert Subgroup(n, more) == L
            w = [rng.randint(-5, 5) for _ in range(n)]
            if not contains(L, w):
                assert Subgroup(n, vecs + [w]) != L

    def test_equality_does_not_depend_on_the_constructor(self):
        assert Subgroup(1, ((4,), (6,))) == Subgroup.cyclic(2)
        assert hash(Subgroup(1, ((4,), (6,)))) == hash(Subgroup.cyclic(2))
        # the raw generators of gamma_sj((9, 8), 1), k^perp then j*k, and their Hermite rows
        raw = Subgroup(2, ((8, -9), (9, 8)))
        assert raw == Subgroup(2, ((1, 17), (0, 145))) == gamma_sj((9, 8), 1)
        assert raw.gens == ((1, 17), (0, 145))
        assert raw.to_json() == [[1, 17], [0, 145]]

    def test_perp_of_the_zero_lattice_is_everything(self):
        assert Subgroup(3, ()).perp() == Subgroup.diagonal(3, 1)
        assert Subgroup.diagonal(2, 5).perp() == Subgroup(2, ())

    def test_hermite_basis_is_computed_once(self, monkeypatch):
        from torgrowth import lattices

        G = gamma_sj((2, 3), 2)
        calls = []
        original = lattices.hnf_rows
        monkeypatch.setattr(lattices, "hnf_rows", lambda vecs: calls.append(1) or original(vecs))
        for v in ((3, -2), (4, 6), (1, 0)):
            contains(G, v)
        assert (G.rank(), G.index()) == (2, 26)
        assert calls == []


class TestMinNorm:
    def test_rectangular(self):
        assert min_norm(Subgroup(2, ((5, 0), (0, 7)))) == 5

    def test_rank_one(self):
        assert min_norm(Subgroup(2, ((3, 4),))) == 5

    def test_skew_lattice(self):
        assert min_norm_sq(Subgroup(2, ((2, 1), (1, 2)))) == 2

    def test_bounded_by_generators(self):
        def brute(n, gens, box):
            return min(
                q for c in itertools.product(range(-box, box + 1), repeat=len(gens))
                if (q := sum(sum(ci * g[i] for ci, g in zip(c, gens)) ** 2 for i in range(n)))
            )

        rng = random.Random(22)
        for _ in range(80):
            n = rng.choice([1, 2, 3])
            gens = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(rng.randint(1, 3)))
            if all(not any(g) for g in gens):
                continue
            v = min_norm_sq(Subgroup(n, gens))
            assert v <= min(sum(x * x for x in g) for g in gens if any(g))
            assert v == brute(n, gens, 8)
        # size-reduced bases that hold no shortest vector (squared norms 21,
        # 25, 6, 4 against 25, 32, 10, 10 for the shortest basis vector): only
        # a large enough coefficient box finds the minimum
        for gens in [((-4, 0, 3), (-4, 1, -3), (1, 3, 4)),
                     ((-4, -4, 0), (-1, -3, -5), (1, -4, 5)),
                     ((-2, 1, 1, 2), (0, -1, 0, 3), (1, 0, -3, 1), (-3, 1, -2, -1)),
                     ((2, 1, 1, 2), (-1, 0, -1, 3), (-1, 0, 3, -1), (-3, 1, 1, 1))]:
            n = len(gens[0])
            v = min_norm_sq(Subgroup(n, gens))
            assert v == brute(n, gens, 3) < min(sum(x * x for x in g) for g in gens)

    @staticmethod
    def brute_min_norm_sq(gamma):
        """The least squared norm of a nonzero lattice point, by testing every
        point of Z^n no longer than the shortest generator."""
        r2 = min(sum(x * x for x in g) for g in gamma.gens if any(g))
        b = math.isqrt(r2)
        return min(q for x in itertools.product(range(-b, b + 1), repeat=gamma.nvars)
                   if 0 < (q := sum(a * a for a in x)) <= r2 and contains(gamma, x))

    def rank_two_lattices(self):
        rng = random.Random(2024)
        for _ in range(150):
            n = rng.randint(1, 4)
            gens = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(1, 2)))
            if any(map(any, gens)):
                yield Subgroup(n, gens)
        for k in [(1, 1), (1, 2), (3, 4), (5, -2), (7, 3), (2, 9)]:
            for j in (1, 2, 3, 7):
                yield gamma_sj(k, j)
        for k in [(1, 0), (3, 4), (-5, 2), (1, 1, 1), (1, 2, 3), (2, -3, 5), (0, 4, 7), (6, 10, 15)]:
            yield perp(k)

    def test_rank_at_most_two_matches_brute_force(self):
        for gamma in self.rank_two_lattices():
            assert gamma.rank() <= 2
            assert min_norm_sq(gamma) == self.brute_min_norm_sq(gamma), gamma

    def test_rank_at_most_two_skips_the_enumeration(self, monkeypatch):
        from torgrowth import lattices

        def no_enumeration(mat):
            raise AssertionError("the Gram minors are for rank 3 and 4 only")

        monkeypatch.setattr(lattices, "bareiss_det", no_enumeration)
        lattices_ = (gamma_sj((3, 4), 2), perp((1, 2, 3)), Subgroup.cyclic(7))
        assert [min_norm_sq(g) for g in lattices_] == [25, 3, 49]

    def test_zero_lattice(self):
        with pytest.raises(ValueError):
            min_norm(Subgroup(2, ((0, 0),)))

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            min_norm(Subgroup(5, (tuple([1, 0, 0, 0, 0]),)))


class TestCoordinateOrder:
    def test_rectangular(self):
        A = quotient(Subgroup(2, ((5, 0), (0, 7))))
        assert coordinate_order(A, 0) == 5
        assert coordinate_order(A, 1) == 7

    def test_skew(self):
        A = quotient(Subgroup(2, ((1, -1), (1, 1))))
        assert coordinate_order(A, 0) == 2

    def test_cyclic(self):
        assert coordinate_order(quotient(Subgroup.cyclic(9)), 0) == 9

    def test_bad_index(self):
        with pytest.raises(ValueError):
            coordinate_order(quotient(Subgroup.cyclic(3)), 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_read_off_the_transform_equals_the_projection(self, n):
        # the order of e_i, read off column i of U, against the order of its image
        rng = random.Random(3550 + n)
        seen = 0
        while seen < 40:
            gamma = Subgroup(n, [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
            if not 1 <= gamma.index() <= 5000:
                continue
            A, seen = quotient(gamma), seen + 1
            for i in range(n):
                e = [int(i == j) for j in range(n)]
                assert coordinate_order(A, i) == order_of(A, A.project(e)), (gamma, i)


class TestPerp:
    def test_examples(self):
        assert contains(perp((1, 1)), (1, -1))
        assert contains(perp((2, 3)), (3, -2))
        p = perp((1, 1, 1))
        assert p.rank() == 2 and contains(p, (1, -1, 0)) and contains(p, (0, 1, -1))

    def test_zero_vector(self):
        with pytest.raises(ValueError):
            perp((0, 0))

    def test_saturated(self):
        # Z^n / perp(k) is torsion-free of rank one: the quotient by
        # perp + (k itself scaled) realizes every index exactly
        rng = random.Random(23)
        for _ in range(60):
            n = rng.choice([2, 3])
            k = tuple(rng.randint(-4, 4) for _ in range(n))
            if not any(k):
                continue
            p = perp(k)
            assert p.rank() == n - 1
            g = math.gcd(*k) if n > 1 else abs(k[0])
            kk = tuple(x // g for x in k)
            full = Subgroup(n, p.gens + (kk,))
            assert quotient(full).order == sum(x * x for x in kk)


class TestGammaSJ:
    def test_index_examples(self):
        assert quotient(gamma_sj((1, 1), 3)).order == 6
        assert quotient(gamma_sj((1, 0), 5)).order == 5
        assert quotient(gamma_sj((2, 3), 6)).order == 78

    def test_cyclic_quotient(self):
        rng = random.Random(24)
        for _ in range(40):
            n = rng.choice([2, 3])
            k = tuple(rng.randint(1, 5) for _ in range(n))
            if math.gcd(*k) != 1:
                continue
            j = rng.randint(1, 5)
            A = quotient(gamma_sj(k, j))
            norm2 = sum(x * x for x in k)
            assert A.order == j * norm2
            assert A.invariant_factors == (j * norm2,)
            # m -> m·k mod j|k|^2 is the isomorphism: generator orders agree
            e = [0] * n
            e[0] = 1
            expect = (j * norm2) // math.gcd(k[0], j * norm2)
            assert order_of(A, A.project(e)) == expect

    def test_noncoprime_rejected(self):
        with pytest.raises(ValueError):
            gamma_sj((2, 4), 3)


class TestConvergingSequence:
    def test_univariate(self):
        assert converging_k_sequence((1.0,), 7) == (1,)

    def test_postconditions(self):
        kappa = unit_vector((1, 1))
        for s in (1, 2, 4):
            k = converging_k_sequence(kappa, s)
            assert all(x > 0 for x in k)
            assert math.gcd(*k) == 1
            assert lawton_norm(k) > s
            inv = unit_vector([1.0 / x for x in k])
            assert math.dist(inv, kappa) < 1.0 / s

    def test_boundary_direction(self):
        # a direction with a zero coordinate drops the closeness condition
        k = converging_k_sequence((1.0, 0.0), 2)
        assert lawton_norm(k) > 2

    def test_three_vars(self):
        kappa = unit_vector((2, 1, 2))
        k = converging_k_sequence(kappa, 2)
        assert len(k) == 3 and math.gcd(*k) == 1
        assert lawton_norm(k) > 2

    def test_budget(self):
        with pytest.raises(SearchBudgetExceeded):
            converging_k_sequence(unit_vector((1, 1)), 50, max_norm=3)


class TestDirection:
    def test_validation(self):
        with pytest.raises(ValueError, match="zero vector"):
            unit_vector((0.0, 0.0))
        with pytest.raises(ValueError, match="zero vector"):
            unit_vector(())
        with pytest.raises(ValueError, match="nonnegative"):
            unit_vector((-1.0, 0.0))

    @pytest.mark.parametrize("coords", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 0.0),
                                        (0.0, -math.inf)])
    def test_refuses_non_finite_coordinates(self, coords):
        with pytest.raises(ValueError, match="finite"):
            unit_vector(coords)

    def test_unit_vector_keeps_the_plain_arithmetic(self):
        for vec in ((3, 4), (0.6, 0.8), (1, 2, 2), (5,), (1e-3, 7.25)):
            n = math.sqrt(sum(float(x) ** 2 for x in vec))
            assert unit_vector(vec) == tuple(float(x) / n for x in vec)

    @pytest.mark.parametrize("vec, unit", [
        ((1e308, 1), (1.0, 1e-308)), ((1.3e154, 1.3e154), (0.5 ** 0.5,) * 2),
        ((1e-200, 1e-200), (0.5 ** 0.5,) * 2), ((3e-162, 4e-162), (0.6, 0.8)),
        ((0.0, 5e-324), (0.0, 1.0))])
    def test_unit_vector_of_huge_and_tiny_coordinates(self, vec, unit):
        # squares that overflow, or underflow to zero or to subnormals
        assert unit_vector(vec) == pytest.approx(unit, rel=1e-15)

    def test_direction_of_quotient(self):
        A = quotient(Subgroup(2, ((3, 0), (0, 4))))
        d = direction_of(A)
        assert d == pytest.approx((0.6, 0.8))


def test_subgroup_json_roundtrip():
    g = Subgroup(2, ((1, -1), (1, 1)))
    assert Subgroup.from_json(g.to_json()) == g


@pytest.mark.parametrize("data", [[[True]], [[2, False], [0, 2]], [[1.0]]])
def test_subgroup_json_rejects_non_integers(data):
    with pytest.raises(ValueError, match="integer lists"):
        Subgroup.from_json(data)


@pytest.mark.parametrize("make", [lambda: Subgroup.cyclic(-5), lambda: Subgroup.diagonal(2, -2)],
                         ids=["cyclic", "diagonal"])
def test_negative_subgroup_size_is_refused(make):
    # -5*Z = 5*Z, so keeping the sign would answer for the size 5
    with pytest.raises(ValueError, match=">= 0"):
        make()
