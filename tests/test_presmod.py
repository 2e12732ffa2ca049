import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA, planted_presentations, random_laurent, random_nonzero_laurent
from lemmas import direct_sum, is_pseudo_zero_torsion, rho_of_word
from torgrowth.intlinalg import eliminate
from torgrowth.laurent import LaurentPoly, div_exact, normalize_unit, variables
from torgrowth.presmod import (
    ChainComplex,
    GroupPresentation,
    PresentedModule,
    alexander,
    alexander_complex,
    alexander_module,
    all_alexander,
    branched_module,
    delta,
    fox_derivative,
    parse_presentation,
    rank,
    reduce_presentation,
)

t, = variables(1)
t1, t2 = variables(2)
TREFOIL_DELTA = t ** 2 - t + 1
FIG8_DELTA = t ** 2 - 3 * t + 1


def random_presentation(rng: random.Random, nvars: int, max_dim: int = 3) -> PresentedModule:
    m1, m0 = rng.randint(1, max_dim), rng.randint(1, max_dim)
    rows = tuple(
        tuple(random_laurent(rng, nvars, max_terms=2, exp_range=(-1, 2), coeff_max=2)
              for _ in range(m0))
        for _ in range(m1)
    )
    return PresentedModule(nvars, rows)


class TestRank:
    def test_torsion_is_rank_zero(self):
        assert rank(PresentedModule(1, ((t - 2,),))) == 0

    def test_free(self):
        assert rank(PresentedModule(1, (), 2)) == 2

    def test_trefoil_relation_module(self):
        f = TREFOIL_DELTA
        assert rank(PresentedModule(1, ((f, -f),))) == 1


def laplace_det(a, nvars: int) -> LaurentPoly:
    """Determinant by cofactor expansion along the first row."""
    if not a:
        return LaurentPoly.one(nvars)
    total = LaurentPoly.zero(nvars)
    for j, entry in enumerate(a[0]):
        term = entry * laplace_det([row[:j] + row[j + 1:] for row in a[1:]], nvars)
        total = total - term if j % 2 else total + term
    return total


class TestEliminate:
    def test_determinant_matches_laplace(self):
        rng = random.Random(20)
        singular = 0
        for _ in range(80):
            nvars, k = rng.randint(1, 2), rng.randint(1, 3)
            a = [[random_laurent(rng, nvars, max_terms=2, exp_range=(-1, 2), coeff_max=2)
                  for _ in range(k)] for _ in range(k)]
            r, pivot = eliminate(a, k)
            det = laplace_det(a, nvars)
            assert (pivot if r == k else LaurentPoly.zero(nvars)) == det
            singular += r < k
        assert 0 < singular < 80
        # the same loop over Z: integer entries, integer pivots
        singular = 0
        for _ in range(80):
            k = rng.randint(1, 4)
            a = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
            r, pivot = eliminate(a, k)
            assert isinstance(pivot, int)
            assert (pivot if r == k else 0) == laplace_det(a, 1)
            singular += r < k
        assert 0 < singular < 80

    def test_rank_of_stacked_dependent_rows(self):
        rng = random.Random(21)
        for _ in range(20):
            while True:
                r1 = [random_laurent(rng, 2, max_terms=2, exp_range=(-1, 1)) for _ in range(3)]
                r2 = [random_laurent(rng, 2, max_terms=2, exp_range=(-1, 1)) for _ in range(3)]
                if not laplace_det([r1[:2], r2[:2]], 2).is_zero():
                    break
            f, g = random_nonzero_laurent(rng, 2), random_nonzero_laurent(rng, 2)
            combo = [f * x + g * y for x, y in zip(r1, r2)]
            diff = [x - y for x, y in zip(r1, r2)]
            mod = PresentedModule(2, (tuple(combo), tuple(r1), tuple(diff), tuple(r2)))
            assert rank(mod) == 1


class TestAlexander:
    def test_principal(self):
        assert alexander(PresentedModule(1, ((t - 2,),)), 0) == t - 2

    def test_trefoil_matrix(self):
        f = TREFOIL_DELTA
        M = PresentedModule(1, ((f, -f),))
        assert alexander(M, 0).is_zero()
        assert alexander(M, 1) == f

    def test_free_conventions(self):
        F = PresentedModule(1, (), 2)
        assert alexander(F, 0).is_zero()
        assert alexander(F, 1).is_zero()
        assert alexander(F, 2).is_one()
        assert alexander(F, 5).is_one()

    def test_ideal_quotient_is_generator_gcd(self):
        M = PresentedModule.quotient_by_ideal(1, [t ** 2 - 1, t ** 2 - 2 * t + 1])
        assert alexander(M, 0) == t - 1

    def test_divisibility_chain(self):
        rng = random.Random(40)
        for _ in range(80):
            M = random_presentation(rng, rng.choice([1, 2]))
            polys = all_alexander(M)
            for j in range(1, len(polys)):
                hi, lo = polys[j], polys[j - 1]
                if lo.is_zero():
                    continue
                assert not hi.is_zero()
                assert div_exact(lo, hi) is not None

    def test_vanishing_below_rank(self):
        rng = random.Random(41)
        for _ in range(60):
            M = random_presentation(rng, rng.choice([1, 2]))
            r = rank(M)
            for j in range(r):
                assert alexander(M, j).is_zero()
            assert not alexander(M, r).is_zero()

    def test_guard(self):
        huge = PresentedModule(1, tuple((LaurentPoly.one(1),) * 9 for _ in range(9)))
        with pytest.raises(ValueError):
            alexander(huge, 0)


class TestDelta:
    def test_examples(self):
        assert delta(PresentedModule(1, ((t - 2,),))) == t - 2
        f = TREFOIL_DELTA
        assert delta(PresentedModule(1, ((f, -f),))) == f

    def test_row_and_column_operations(self):
        rng = random.Random(42)
        for _ in range(60):
            nv = rng.choice([1, 2])
            M = random_presentation(rng, nv)
            d0 = delta(M)
            mat = [list(r) for r in M.matrix]
            if M.m1 >= 2:
                i, j = rng.sample(range(M.m1), 2)
                mult = random_laurent(rng, nv, max_terms=2)
                mat[i] = [a + mult * b for a, b in zip(mat[i], mat[j])]
            if M.m0 >= 2:
                i, j = rng.sample(range(M.m0), 2)
                u = LaurentPoly.monomial(tuple(rng.randint(-1, 1) for _ in range(nv)),
                                         rng.choice([1, -1]))
                for row in mat:
                    row[i] = row[i] + u * row[j]
            assert delta(PresentedModule(nv, tuple(map(tuple, mat)))) == d0

    def test_stabilization(self):
        rng = random.Random(43)
        for _ in range(60):
            nv = rng.choice([1, 2])
            M = random_presentation(rng, nv)
            d0 = delta(M)
            z = LaurentPoly.zero(nv)
            mat = [list(r) + [z] for r in M.matrix]
            mat.append([z] * M.m0 + [LaurentPoly.one(nv)])
            assert delta(PresentedModule(nv, tuple(map(tuple, mat)))) == d0


class TestPseudoZero:
    def test_two_and_t_minus_one(self):
        M = PresentedModule.quotient_by_ideal(2, [LaurentPoly.constant(2, 2), t1 - 1])
        assert is_pseudo_zero_torsion(M) is True

    def test_principal_nontrivial(self):
        assert is_pseudo_zero_torsion(PresentedModule(1, ((t - 2,),))) is False

    def test_zero_module(self):
        assert is_pseudo_zero_torsion(PresentedModule(1, ((LaurentPoly.one(1),),))) is True

    def test_positive_rank_rejected(self):
        f = TREFOIL_DELTA
        with pytest.raises(ValueError):
            is_pseudo_zero_torsion(PresentedModule(1, ((f, -f),)))


class TestFox:
    def test_trefoil_derivative(self, trefoil_text):
        pres = parse_presentation(trefoil_text)
        assert fox_derivative(pres.relators[0], 0, pres) == 1 - t + t ** 2

    def test_base_rules(self, trefoil_text):
        pres = parse_presentation(trefoil_text)
        assert fox_derivative((1,), 0, pres).is_one()
        assert fox_derivative((-1,), 0, pres) == -(t ** -1)
        assert fox_derivative((2,), 0, pres).is_zero()

    def test_malformed(self, trefoil_text):
        pres = parse_presentation(trefoil_text)
        with pytest.raises(ValueError):
            fox_derivative((0,), 0, pres)
        with pytest.raises(ValueError):
            fox_derivative((5,), 0, pres)

    @given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=14))
    @settings(max_examples=200, deadline=None)
    def test_fundamental_identity(self, word):
        pres = GroupPresentation(3, (), (t1, t2, t1 * t2 ** -1))
        total = LaurentPoly.zero(2)
        for g in range(3):
            total = total + fox_derivative(word, g, pres) * (pres.rho[g] - 1)
        assert total == rho_of_word(pres, word) - 1


class TestAlexanderComplex:
    def test_trefoil(self, trefoil_text):
        pres = parse_presentation(trefoil_text)
        cx = alexander_complex(pres)
        assert cx.ranks == (1, 2, 1)
        assert cx.diffs[0] == ((1 - t,), (1 - t,))
        d2 = cx.diffs[1][0]
        assert normalize_unit(d2[0]) == normalize_unit(TREFOIL_DELTA)
        assert d2[0] == -d2[1]

    def test_free_group(self):
        pres = GroupPresentation(2, (), (t1, t2))
        cx = alexander_complex(pres)
        assert len(cx.diffs) == 2 and cx.ranks == (1, 2, 0)
        assert alexander_module(pres).m1 == 0

    def test_figure_eight(self, fig8_text):
        pres = parse_presentation(fig8_text)
        mod = alexander_module(pres)
        assert delta(mod) == FIG8_DELTA
        assert alexander(mod, 1) == FIG8_DELTA

    def test_composition_validated(self):
        with pytest.raises(ValueError):
            ChainComplex(1, (((t,),), ((LaurentPoly.one(1),),)), (1, 1, 1))


class TestBranchedModule:
    def test_shape(self, trefoil_text):
        mod = alexander_module(parse_presentation(trefoil_text))
        bm = branched_module(mod, 1)
        assert (bm.m1, bm.m0) == (2, 3)
        assert bm.matrix[1][0].is_one()
        assert bm.matrix[1][2] == 1 - t

    def test_trefoil_delta(self, trefoil_text):
        # the unit column absorbs the 1-t factor; the Mahler measure of
        # Delta is unchanged because measure(1-t) = 0
        bm = branched_module(alexander_module(parse_presentation(trefoil_text)), 1)
        assert delta(bm) == TREFOIL_DELTA

    def test_unknot(self):
        bm = branched_module(PresentedModule(1, (), 1), 1)
        assert (bm.m1, bm.m0) == (1, 2)
        assert delta(bm).is_one()

    def test_hopf_link_picks_up_torus_factors(self, hopf_text):
        mod = alexander_module(parse_presentation(hopf_text))
        bm = branched_module(mod, 2)
        assert delta(bm) == normalize_unit((1 - t1) * (1 - t2))

    def test_shape_errors(self, trefoil_text):
        mod = alexander_module(parse_presentation(trefoil_text))
        with pytest.raises(ValueError):
            branched_module(mod, 2)
        with pytest.raises(ValueError):
            branched_module(PresentedModule(1, ((t, t), (t, t))), 1)


class TestReducePresentation:
    def test_fig8_branched_is_one_delta_row(self, fig8_text):
        bm = branched_module(alexander_module(parse_presentation(fig8_text)), 1)
        red = reduce_presentation(bm)
        assert (red.m1, red.m0) == (1, 2)
        assert normalize_unit(red.matrix[0][0]) == normalize_unit(FIG8_DELTA)
        assert red.matrix[0][1].is_zero()

    def test_unit_ideal_leaves_no_generator(self):
        red = reduce_presentation(PresentedModule.quotient_by_ideal(1, [t ** 2, t - 2]))
        assert (red.m1, red.m0) == (0, 0)

    def test_fitting_ideals_unchanged(self):
        # every tests/data presentation, raw and branched, and the planted ones
        data = [alexander_module(parse_presentation(p.read_text())) for p in DATA.glob("*.txt")]
        mods = [*data, *(branched_module(m, m.nvars) for m in data), *planted_presentations()]
        for mod in mods:
            red = mod.reduced
            for j in range(mod.m0 + 1):
                assert alexander(red, j) == alexander(mod, j)
            assert delta(red) == delta(mod)

    def test_reduced_is_kept_outside_the_fields(self, fig8_text):
        mod = branched_module(alexander_module(parse_presentation(fig8_text)), 1)
        same = PresentedModule(mod.nvars, mod.matrix, mod.m0)
        assert mod.reduced is mod.reduced
        assert mod.reduced == reduce_presentation(mod)
        assert (mod, hash(mod), mod.to_json()) == (same, hash(same), same.to_json())
        assert pickle.loads(pickle.dumps(mod)) == same


class TestParsePresentation:
    def test_roundtrip_words(self, fig8_text):
        pres = parse_presentation(fig8_text)
        assert pres.ngens == 2
        assert pres.relators[0] == (-1, 2, 1, -2, 1, 2, -1, -2, 1, -2)

    def test_multivariable(self, hopf_text):
        pres = parse_presentation(hopf_text)
        assert pres.nvars == 2
        assert pres.rho == (t1, t2)

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_presentation("rel: x y\n")
        with pytest.raises(ValueError):
            parse_presentation("gens: x\nrho: x -> t1\nrel: x z\n")
        with pytest.raises(ValueError):
            parse_presentation("gens: x\nrho: x -> t1 + 1\nrel: x\n")
        with pytest.raises(ValueError):
            parse_presentation("gens: x\nrho: y -> t1\nrel: x\n")

    def test_exponent_words(self):
        pres = parse_presentation("gens: a b\nrho: a -> t1, b -> t1\nrel: a^2 b^-3\n")
        assert pres.relators[0] == (1, 1, -2, -2, -2)

    def test_torus_knot_presentation_gives_trefoil_delta(self):
        # a^2 = b^3 with rho(a) = t^3, rho(b) = t^2
        pres = parse_presentation(
            "gens: a b\nrho: a -> t1^3, b -> t1^2\nrel: a^2 b^-3\n"
        )
        assert delta(alexander_module(pres)) == TREFOIL_DELTA


def test_module_json_roundtrip():
    rng = random.Random(44)
    for _ in range(40):
        M = random_presentation(rng, rng.choice([1, 2]))
        assert PresentedModule.from_json(M.to_json()) == M
    F = PresentedModule(2, (), 3)
    assert PresentedModule.from_json(F.to_json()) == F


@pytest.mark.parametrize("data, field", [
    ({"nvars": 1, "matrix": [], "m0": 2.7}, "'m0'"),
    ({"nvars": 1, "matrix": [], "m0": "2"}, "'m0'"),
    ({"nvars": 1, "matrix": [], "m0": True}, "'m0'"),
    ({"nvars": True, "matrix": [[[[[1], "1"]]]]}, "'nvars'"),
    ({"nvars": 1.0, "matrix": [[[[[1], "1"]]]]}, "'nvars'"),
])
def test_module_json_needs_exact_integers(data, field):
    # "m0": 2.7 would otherwise read as the free module of rank 2
    with pytest.raises(ValueError, match=field):
        PresentedModule.from_json(data)


def test_module_pickle_roundtrip():
    rng = random.Random(45)
    for _ in range(20):
        M = random_presentation(rng, rng.choice([1, 2]))
        assert pickle.loads(pickle.dumps(M)) == M
    F = PresentedModule(2, (), 3)
    assert pickle.loads(pickle.dumps(F)) == F


def test_direct_sum_block_structure():
    A = PresentedModule(1, ((t - 2,),))
    B = PresentedModule.quotient_by_ideal(1, [t + 1, t - 1])
    S = direct_sum(A, B)
    assert (S.m1, S.m0) == (3, 2)
    # B is pseudo-zero (Delta_0 = 1), so the sum keeps A's order
    assert is_pseudo_zero_torsion(B)
    assert delta(S) == t - 2
