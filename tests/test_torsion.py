import hashlib
import math
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from conftest import DATA, lucas, planted_presentations, random_laurent, random_nonzero_laurent
from lemmas import koszul_orders
from torgrowth import intlinalg, torsion
from torgrowth.groupalg import mult_matrix, project_poly
from torgrowth.lattices import FinAbGroup, Subgroup, gamma_sj, quotient
from torgrowth.laurent import LaurentPoly, div_exact, variables
from torgrowth.presmod import (
    ChainComplex,
    PresentedModule,
    alexander_complex,
    alexander_module,
    branched_module,
    delta,
    parse_presentation,
    reduce_presentation,
)
from torgrowth.torsion import (
    GrowthSample,
    OracleDegenerateError,
    betti,
    chain_torsion,
    character_product,
    cyclic_branched_oracle,
    expand,
    growth_sample,
    snf,
    torsion_and_betti,
    torsion_order,
)

t, = variables(1)
t1, t2 = variables(2)


def blow_up_expansion():
    """A one-variable presentation over Z/54 whose expansion leaves a
    singular 109 x 109 block after SNF phase 1."""
    mod = PresentedModule(1, (
        (-3 * t ** 2 - 2 * t ** -1, 0, -3 * t ** 2),
        (2 - 3 * t, 0, 0),
        (t ** 2 + 2 * t ** -1, 1 - t, 3 * t - 3),
    ))
    return expand(mod, Subgroup.cyclic(54))


def link_module(name):
    """The Alexander module of a 2-bridge link from tests/data."""
    return alexander_module(parse_presentation((DATA / f"{name}.txt").read_text()))


# 2-bridge links b(p, q) and their Alexander polynomials
LINKS = {
    "link_12_5": 2 * t1 * t2 - t1 - t2 + 2,
    "link_20_9": 3 * t1 * t2 - 2 * t1 - 2 * t2 + 3,
}


class TestExpand:
    def test_circulant(self):
        M = PresentedModule(1, ((t - 2,),))
        E = expand(M, Subgroup.cyclic(3))
        assert E == [[-2, 0, 1], [1, -2, 0], [0, 1, -2]]

    def test_zero_matrix(self):
        M = PresentedModule(1, ((LaurentPoly.zero(1),),))
        assert expand(M, Subgroup.cyclic(2)) == [[0, 0], [0, 0]]

    def test_permutation_difference_rank(self):
        M = PresentedModule(2, ((1 - t1,),))
        assert snf(expand(M, Subgroup.diagonal(2, 2)))[1] == 2

    def test_block_shape(self):
        M = PresentedModule(1, ((t, 1 - t), (LaurentPoly.one(1), t)))
        E = expand(M, Subgroup.cyclic(3))
        assert len(E) == 6 and len(E[0]) == 6

    def test_matches_blocks_placed_by_index(self):
        # entry (i, j)'s multiplication block at rows i*|A|.., columns
        # j*|A|..; zero entries, zero-width rows, and no shared row lists
        rng = random.Random(19)
        zero = LaurentPoly.zero(2)
        for group in (quotient(Subgroup.diagonal(2, 3)), quotient(gamma_sj((1, 2), 2))):
            N = group.order
            for m1, m0 in [(1, 1), (1, 3), (2, 2), (3, 2), (2, 0)]:
                rows = tuple(tuple(zero if rng.random() < 0.3 else random_laurent(rng, 2)
                                   for _ in range(m0)) for _ in range(m1))
                ref = [[0] * (m0 * N) for _ in range(m1 * N)]
                for i, row in enumerate(rows):
                    for j, e in enumerate(row):
                        block = mult_matrix(project_poly(e, group), group)
                        for a, block_row in enumerate(block):
                            for b, x in enumerate(block_row):
                                ref[i * N + a][j * N + b] = x
                for matrix in (PresentedModule(2, rows, m0), [list(r) for r in rows]):
                    E = expand(matrix, group)
                    assert E == ref
                    assert len({id(r) for r in E}) == len(E)


class TestSnfApi:
    def test_divisibility_normalization(self):
        assert intlinalg.snf_diagonal([[2, 0], [0, 3]]) == [1, 6]
        assert snf([[2, 0], [0, 3]]) == (6, 2)

    def test_zero(self):
        assert snf([[0, 0], [0, 0]]) == (1, 0)

    def test_torsion_seven(self):
        E = expand(PresentedModule(1, ((t - 2,),)), Subgroup.cyclic(3))
        assert snf(E) == (7, 3)

    def test_phase_two_blow_up_finishes(self):
        # phase 1 leaves a singular 109 x 109 block on which pivoting that
        # clears a row by its first remainder grew entries past Hadamard's bound
        E = blow_up_expansion()
        tor, rank = snf(E)
        assert (tor, len(E) - rank) == (3381391912475193807335887249798732248006856415633265, 1)
        assert snf([list(c) for c in zip(*E)]) == (tor, rank)

    def test_phase_two_stays_within_hadamard_bound(self, monkeypatch):
        # every entry phase 2 reduces stays within the incoming block's
        # Hadamard bound, on random presentations like the one above, on that
        # one, and on the link modules
        bound = [0]
        diagonalize, nearest_div = intlinalg._diagonalize, intlinalg.nearest_div

        def bounded(A, U=None):
            bound[0] = math.isqrt(math.prod(sum(x * x for x in r) for r in A)) + 1
            diagonalize(A, U)

        def watched(a, b):
            big = max(abs(a), abs(b))
            assert big <= bound[0], (
                f"{big.bit_length()}-bit entry against a {bound[0].bit_length()}-bit bound")
            return nearest_div(a, b)

        monkeypatch.setattr(intlinalg, "_diagonalize", bounded)
        monkeypatch.setattr(intlinalg, "nearest_div", watched)
        rng = random.Random(15)
        for _ in range(150):
            m1, m0 = rng.randint(1, 3), rng.randint(1, 3)
            mod = PresentedModule(1, tuple(tuple(random_laurent(rng, 1) for _ in range(m0))
                                           for _ in range(m1)))
            snf(expand(mod, Subgroup.cyclic(rng.randint(10, 60))))
        snf(blow_up_expansion())
        for name in LINKS:
            for d in range(2, 7):
                snf(expand(link_module(name), Subgroup.diagonal(2, d)))

    def test_phase_two_moves_do_not_depend_on_the_transform(self, monkeypatch):
        # _diagonalize skips U's bookkeeping when none is asked for; the
        # moves on A are the same either way, on the blocks phase 1 leaves
        blocks = []
        diagonalize = intlinalg._diagonalize

        def captured(A, U=None):
            blocks.append([list(r) for r in A])
            diagonalize(A, U)

        monkeypatch.setattr(intlinalg, "_diagonalize", captured)
        rng = random.Random(19)
        for _ in range(40):
            m1, m0 = rng.randint(1, 3), rng.randint(1, 3)
            mod = PresentedModule(1, tuple(tuple(random_laurent(rng, 1) for _ in range(m0))
                                           for _ in range(m1)))
            snf(expand(mod, Subgroup.cyclic(rng.randint(10, 40))))
        snf(blow_up_expansion())
        snf(expand(PresentedModule(2, ((3 + t1 + t2,),)), Subgroup.diagonal(2, 16)))
        assert any(len(B) == 109 for B in blocks)
        for B in blocks:
            plain, tracked = [list(r) for r in B], [list(r) for r in B]
            diagonalize(plain)
            diagonalize(tracked, [[int(i == j) for j in range(len(B))] for i in range(len(B))])
            assert plain == tracked

    def test_pinned_factors_of_diagonal_3_t1_t2(self):
        # the invariant factors that phase 2 on numpy object arrays gave for
        # 3 + t1 + t2 over Z^2 / 16 Z^2, pinned across the port to lists
        E = expand(PresentedModule(2, ((3 + t1 + t2,),)), Subgroup.diagonal(2, 16))
        diag = intlinalg.snf_diagonal(E)
        rest = ",".join(str(d) for d in diag if d != 1)
        assert (len(diag), diag.count(1)) == (256, 240)
        assert hashlib.sha256(rest.encode()).hexdigest() == (
            "bf0c3da071c4c131f4340a5a7b03cd84776fb4441d990100fb5be1b9c025496e")


class TestTorsionOrder:
    def test_closed_form(self):
        M = PresentedModule(1, ((t - 2,),))
        for ell in range(1, 16):
            assert torsion_order(M, Subgroup.cyclic(ell)) == 2 ** ell - 1

    def test_free_module(self):
        F = PresentedModule.free(1, 2)
        assert torsion_order(F, Subgroup.cyclic(6)) == 1
        assert betti(F, Subgroup.cyclic(6)) == 12

    def test_character_product_cross_check(self):
        M = PresentedModule.quotient_by_ideal(2, [3 + t1 + t2])
        gamma = Subgroup.diagonal(2, 2)
        assert torsion_order(M, gamma) == 45
        assert character_product(3 + t1 + t2, gamma) == 45

    @pytest.mark.parametrize("f", [3 + t1 + t2, 1 + t1 + t2], ids=["3+t1+t2", "1+t1+t2"])
    def test_snf_matches_character_product(self, f):
        # 1+t1+t2 vanishes at (omega, omega^2), a character exactly when 3 | d
        M = PresentedModule.quotient_by_ideal(2, [f])
        for d in range(1, 13):
            gamma = Subgroup.diagonal(2, d)
            tor, rank = snf(expand(M, gamma))
            if f == 1 + t1 + t2 and d % 3 == 0:
                assert rank < d * d
                continue
            assert rank == d * d
            assert tor == character_product(f, gamma)

    def test_snf_time_budget_at_index_1024(self):
        M = PresentedModule.quotient_by_ideal(2, [3 + t1 + t2])
        start = time.perf_counter()
        diag = intlinalg.snf_diagonal(expand(M, Subgroup.diagonal(2, 32)))
        elapsed = time.perf_counter() - start
        assert len(diag) == 1024 and all(diag)
        assert max(diag).bit_length() == 706
        assert elapsed < 5.0

    def test_torsion_free_module_negligible(self):
        # the ideal (t1-1, t2-1) as a module: rank one, torsion-free,
        # presented by its Koszul syzygy; torsion growth stays at zero
        I = PresentedModule(2, (((t2 - 1), -(t1 - 1)),))
        for d in (4, 8, 16):
            s = growth_sample(I, Subgroup.diagonal(2, d), f"d={d}")
            assert s.torsion_order == 1
            assert s.growth_stat == 0.0 < 0.05
            assert s.betti == d * d + 1

    def test_row_column_operation_invariance(self):
        rng = random.Random(50)
        for _ in range(30):
            nv = rng.choice([1, 2])
            m1, m0 = rng.randint(1, 2), rng.randint(1, 2)
            rows = tuple(
                tuple(random_laurent(rng, nv, max_terms=2, exp_range=(0, 1)) for _ in range(m0))
                for _ in range(m1)
            )
            M = PresentedModule(nv, rows)
            gamma = Subgroup.cyclic(rng.randint(1, 4)) if nv == 1 else Subgroup.diagonal(2, 2)
            base = torsion_order(M, gamma)
            mat = [list(r) for r in rows]
            if m1 == 2:
                mult = random_laurent(rng, nv, max_terms=2)
                mat[0] = [a + mult * b for a, b in zip(mat[0], mat[1])]
            M2 = PresentedModule(nv, tuple(map(tuple, mat)))
            assert torsion_order(M2, gamma) == base


class TestChainTorsion:
    def test_interval_complex(self):
        cx = ChainComplex(1, (((t - 2,),),), (1, 1))
        assert chain_torsion(cx, 0, Subgroup.cyclic(5)) == 31

    def test_above_top(self):
        cx = ChainComplex(1, (((t - 2,),),), (1, 1))
        assert chain_torsion(cx, 1, Subgroup.cyclic(5)) == 1
        assert chain_torsion(cx, 7, Subgroup.cyclic(5)) == 1
        with pytest.raises(ValueError):
            chain_torsion(cx, -1, Subgroup.cyclic(5))

    def test_trefoil_unbranched(self, trefoil_text):
        cx = alexander_complex(parse_presentation(trefoil_text))
        dpoly = delta(alexander_module(parse_presentation(trefoil_text)))
        for ell in (2, 3, 5, 7):
            assert chain_torsion(cx, 1, Subgroup.cyclic(ell)) == cyclic_branched_oracle(dpoly, ell)


class TestOracle:
    def test_trefoil_values(self, trefoil_text):
        dpoly = delta(alexander_module(parse_presentation(trefoil_text)))
        assert cyclic_branched_oracle(dpoly, 1) == 1
        assert cyclic_branched_oracle(dpoly, 2) == 3
        assert cyclic_branched_oracle(dpoly, 3) == 4

    def test_fig8_values(self, fig8_text):
        dpoly = delta(alexander_module(parse_presentation(fig8_text)))
        assert cyclic_branched_oracle(dpoly, 2) == 5

    def test_degenerate(self, trefoil_text):
        dpoly = delta(alexander_module(parse_presentation(trefoil_text)))
        with pytest.raises(OracleDegenerateError):
            cyclic_branched_oracle(dpoly, 6)
        assert cyclic_branched_oracle(dpoly, 5) == 1  # the Poincare sphere

    def test_rejects_multivariate(self):
        with pytest.raises(ValueError):
            cyclic_branched_oracle(t1 + t2, 3)

    def test_big_precision(self):
        # large coefficients: the product is a 394-bit integer, computed exactly
        f = 991 * t - 993
        val = cyclic_branched_oracle(f, 40)
        # product over 40th roots: |Res(t^40-1, f)| / |f(1)|
        res = 993 ** 40 - 991 ** 40
        assert val == res // (993 - 991)


class TestReducedPresentation:
    """torsion_and_betti reduces over R first; SNF of the unreduced expansion
    is the independent reference."""

    def test_matches_unreduced_snf(self):
        rng = random.Random(808)
        fired = {"unit pivot": 0, "singleton column": 0, "zero row": 0}
        def nnz(m):
            return sum(1 for r in m.matrix for e in r if e)

        for mod in planted_presentations():
            red = reduce_presentation(mod)
            # each unit pivot drops one row and one column; any further row
            # was zero, and without units only rule 2 can remove entries
            fired["unit pivot"] += red.m0 < mod.m0
            fired["zero row"] += red.m1 < mod.m1 - (mod.m0 - red.m0)
            fired["singleton column"] += (
                nnz(red) < nnz(mod) and not any(e.is_unit() for r in mod.matrix for e in r)
            )
            if mod.nvars == 1:
                gamma = Subgroup.cyclic(rng.randint(1, 64))
            elif rng.random() < 0.5:
                gamma = Subgroup.diagonal(2, rng.randint(1, 8))
            else:
                k = rng.choice([(1, 1), (1, 2), (2, 1), (1, 3), (3, 2), (2, -3), (1, -4)])
                gamma = gamma_sj(k, rng.randint(1, 64 // (k[0] ** 2 + k[1] ** 2)))
            order = quotient(gamma).order
            assert order <= 64
            tor, rank = snf(expand(mod, gamma))
            assert torsion_and_betti(mod, gamma) == (tor, mod.m0 * order - rank)
        assert min(fired.values()) >= 20, fired

    def test_known_answers(self, fig8_text):
        fig8 = branched_module(alexander_module(parse_presentation(fig8_text)), 1)
        for ell in (1, 5, 12):
            assert torsion_and_betti(fig8, Subgroup.cyclic(ell)) == torsion_and_betti(
                PresentedModule(1, ((t ** 2 - 3 * t + 1,),)), Subgroup.cyclic(ell)
            )[:1] + (ell,)
        unknot = branched_module(PresentedModule.free(1, 1), 1)
        for ell in (1, 4, 9):
            assert torsion_and_betti(unknot, Subgroup.cyclic(ell)) == (1, ell)
        t_squared = PresentedModule.quotient_by_ideal(1, [t ** 2])
        assert torsion_and_betti(t_squared, Subgroup.cyclic(6)) == (1, 0)


class TestLinkModules:
    """The Silver–Williams half of the paper: Alexander modules of 2-bridge
    links, whose groups have the Schubert normal form <a, b | a·w = w·a>."""

    @pytest.mark.parametrize("name", LINKS)
    def test_alexander_polynomial(self, name):
        assert delta(link_module(name)) == LINKS[name]

    @pytest.mark.parametrize("name", LINKS)
    def test_reduces_to_one_row(self, name):
        # Fox's fundamental formula: the row is Δ·(1 − t2, t1 − 1) up to a unit
        h = LINKS[name]
        [(a, b)] = reduce_presentation(link_module(name)).matrix
        u = div_exact(a, h * (1 - t2))
        assert u is not None and u.is_unit()
        assert b == u * h * (t1 - 1)

    @pytest.mark.parametrize("name", LINKS)
    def test_matches_unreduced_snf(self, name):
        mod = link_module(name)
        for d in range(2, 7):
            tor, rank = snf(expand(mod, Subgroup.diagonal(2, d)))
            assert torsion_and_betti(mod, Subgroup.diagonal(2, d)) == (tor, mod.m0 * d * d - rank)

    def test_known_values_of_20_9(self):
        mod = link_module("link_20_9")
        assert torsion_and_betti(mod, Subgroup.diagonal(2, 2)) == (5, 7)
        assert torsion_and_betti(mod, Subgroup.diagonal(2, 4)) == (1800000, 19)


class TestCompanionRoute:
    """Z[t]/(f, t^ell - 1) is coker(C^ell - I) on Z^D when one end coefficient
    of f is ±1 (t is a unit mod t^ell - 1); the route against SNF of the
    ell x ell expansion."""

    @pytest.mark.parametrize("f", [
        t ** 2 - 3 * t + 1,
        -t ** 2 + t - 1,
        t ** 4 - 3 * t ** 3 + 3 * t ** 2 - 3 * t + 1,
        t ** -3 * (t ** 2 - 3 * t + 1),
        t - 2,
        1 - 2 * t,  # only the trailing coefficient is a unit: t -> 1/t first
    ])
    def test_matches_expanded_snf(self, f):
        mod = PresentedModule(1, ((f,),))
        for ell in range(1, 61):
            group = quotient(Subgroup.cyclic(ell))
            assert torsion.route(reduce_presentation(mod), group)[0] == "companion"
            tor, rank = snf(expand([[f]], group))
            assert torsion_and_betti(mod, group) == (tor, ell - rank), ell

    @pytest.mark.parametrize("f", [2 * t - 3, 3 * t ** -1 - 2 + 2 * t])
    def test_non_unit_end_coefficients_take_snf(self, f, snf_calls):
        mod = PresentedModule(1, ((f,),))
        group = quotient(Subgroup.cyclic(7))
        assert torsion.route(reduce_presentation(mod), group) == ("snf", 0, [[f]])
        torsion_and_betti(mod, group)
        assert snf_calls == [7]

    def test_trefoil_degenerate_exactly_at_multiples_of_six(self, trefoil_text, snf_calls):
        # C^ell = I at 6 | ell: the 2 x 2 companion block is free, one SNF each
        bm = branched_module(alexander_module(parse_presentation(trefoil_text)), 1)
        for ell in range(1, 601):
            tor, b = torsion_and_betti(bm, Subgroup.cyclic(ell))
            assert b == (ell + 2 if ell % 6 == 0 else ell), ell
            if ell % 6 == 0:
                assert tor == 1
        assert snf_calls == [2] * 100

    def test_figure_eight_budget_at_ell_1e5(self, fig8_text):
        # L_2l - 2 = L_l^2 - 2(-1)^l - 2 for the figure-eight's l-fold cover
        ell = 10 ** 5
        fig8 = branched_module(alexander_module(parse_presentation(fig8_text)), 1)
        start = time.perf_counter()
        tor, b = torsion_and_betti(fig8, Subgroup.cyclic(ell))
        assert time.perf_counter() - start < 2.0
        assert (tor, b) == (lucas(ell) ** 2 - 4, ell)

    @staticmethod
    def _companion_power_by_matmul(f, ell):
        """C^ell - I by square-and-multiply of the companion matrix itself."""
        lo, hi = f.min_exponents()[0], f.max_exponents()[0]
        D, lead = hi - lo, f.coeff((hi,))
        C = [[int(r == i + 1) for i in range(D - 1)] + [-lead * f.coeff((lo + r,))]
             for r in range(D)]
        P = C
        for bit in bin(ell)[3:]:
            P = intlinalg.matmul(P, P)
            if bit == "1":
                P = intlinalg.matmul(P, C)
        return [[x - (r == i) for i, x in enumerate(row)] for r, row in enumerate(P)]

    @pytest.mark.parametrize("D", [0, 1, 2, 9, 20])
    def test_power_of_t_mod_g_matches_matrix_powers(self, D):
        rng = random.Random(1700 + D)
        for _ in range(4):
            coeffs = [rng.choice([1, -1, 2, -3, 5])] + [rng.randint(-4, 4) for _ in range(D)]
            coeffs[D] = rng.choice([1, -1])
            lo = rng.randint(-3, 3)
            g = LaurentPoly(1, {(lo + i,): c for i, c in enumerate(coeffs)})
            assert g.max_exponents()[0] - g.min_exponents()[0] == D
            for ell in (1, 2, 3, rng.randint(4, 500)):
                assert torsion._companion_minus_identity(g, ell) == (
                    self._companion_power_by_matmul(g, ell)), (g, ell)


class TestCyclicQuotientRoute:
    """A cyclic quotient Z^n/Gamma = Z/N takes the companion route through
    t_i -> t^y_i and a second reduction over Z[t^±1]; the route against SNF
    of the N-fold expansion."""

    @staticmethod
    def _expected(mod, group):
        tor, rank = snf(expand(mod, group))
        return tor, mod.m0 * group.order - rank

    @staticmethod
    def _cyclic_subgroup(rng, nvars):
        """Gamma_{s,j} or a random lattice with cyclic quotient, |A| <= 200."""
        if rng.random() < 0.5:
            k = rng.choice([(1, 1), (1, 2), (3, 2), (2, -3), (1, -4)] if nvars == 2
                           else [(1, 1, 1), (1, 2, 3), (2, -1, 1)])
            return gamma_sj(k, rng.randint(1, 200 // sum(x * x for x in k)))
        while True:
            gamma = Subgroup(
                nvars, [[rng.randint(-4, 4) for _ in range(nvars)] for _ in range(nvars)])
            if 1 <= gamma.index() <= 200 and quotient(gamma).rank <= 1:
                return gamma

    def test_matches_expanded_snf(self):
        # at |A| >= 32, an entry g without a ±1 end takes the Fourier route
        # on the n-variable f, which runs SNF when f vanishes at a character
        rng = random.Random(1616)
        routes, unit_ends, bettis, large = set(), set(), set(), set()
        for _ in range(90):
            nvars = rng.randint(2, 3)
            gamma = self._cyclic_subgroup(rng, nvars)
            group = quotient(gamma)
            f = random_laurent(rng, nvars, max_terms=4, exp_range=(-1, 2), coeff_max=2)
            if f.is_zero():
                continue
            mod = PresentedModule(nvars, ((f,),))
            got = torsion_and_betti(mod, gamma)
            assert got == self._expected(mod, group), (f, gamma)
            g = f.tau(torsion._cyclic_exponents(mod, group))
            if len(g) > 1:
                ends = g.coefficients()
                unit_ends.add((abs(ends[0]) == 1) + (abs(ends[-1]) == 1))
            name = torsion.route(reduce_presentation(mod), group)[0]
            routes.add(name)
            bettis.add(got[1] > 0)
            if group.order >= torsion.FOURIER_MIN_ORDER:
                large.add((name, got[1] > 0))
        assert unit_ends == {0, 1, 2} and bettis == {True, False}
        assert routes == {"free", "companion", "fourier", "snf"}
        assert {("fourier", False), ("fourier", True)} <= large

    def test_trivial_quotient(self, snf_calls):
        # Gamma = Z^2: y = 0, so g is the constant f(1, 1); a non-unit one is SNF's
        group = quotient(Subgroup.diagonal(2, 1))
        want = {3 + t1 + t2: (5, 0), 1 + t1 + t2: (3, 0), t1 - t2: (1, 1), t1 + t2 - 1: (1, 0)}
        for f, tb in want.items():
            assert torsion_and_betti(PresentedModule(2, ((f,),)), group) == tb, f
        assert snf_calls == [1, 1]
        mod = reduce_presentation(PresentedModule(2, ((3 + t1 + t2,),)))
        assert torsion._cyclic_exponents(mod, group) == [0, 0]
        assert torsion.route(mod, group) == ("snf", 0, [[3 + t1 + t2]])
        for f, free in ((t1 - t2, 1), (t1 + t2 - 1, 0)):  # f(1, 1) is 0, then the unit 1
            assert torsion.route(reduce_presentation(PresentedModule(2, ((f,),))), group) == (
                "free", free, None)

    def test_entry_that_specializes_to_zero(self, snf_calls):
        # e1 = e2 in Z/12, so t1 - t2 becomes 0: a free column, no SNF
        mod = PresentedModule(2, ((t1 - t2,),))
        gamma = Subgroup(2, [(1, -1), (0, 12)])
        assert quotient(gamma).invariant_factors == (12,)
        assert torsion_and_betti(mod, gamma) == (1, 12)
        assert snf_calls == []
        assert self._expected(mod, quotient(gamma)) == (1, 12)

    @pytest.mark.parametrize("j", [1, 2, 3, 5])
    def test_link_style_row_reduces_again(self, j):
        # h(1 - t2) and h(t1 - 1) divide neither each other over Z[t1^±, t2^±];
        # along y = ±(1, 2) the first is a multiple of the second
        h = 1 + t1 + t2
        mod = PresentedModule(2, ((h * (1 - t2), h * (t1 - 1)),))
        group = quotient(gamma_sj((1, 2), j))
        reduced = reduce_presentation(mod)
        assert sum(1 for e in reduced.matrix[0] if e) == 2
        name, free, g = torsion.route(reduced, group)
        assert (name, free) == ("companion", 1)
        assert g in (t ** 3 - 1, t ** -3 - 1)  # h(t, t^2)(t - 1), or at 1/t
        assert torsion_and_betti(mod, group) == self._expected(mod, group)

    def test_order_14500_in_under_a_second(self):
        # 3 does not divide 14500, so 1 + t1 + t2 vanishes at no character
        f = 1 + t1 + t2
        group = quotient(gamma_sj((9, 8), 100))
        start = time.perf_counter()
        got = torsion_and_betti(PresentedModule(2, ((f,),)), group)
        assert time.perf_counter() - start < 1.0
        assert got == (character_product(f, group), 0)


class TestOneRouteDecision:
    """`route` names the one route of a sample: the companion block runs on
    the companion route only, the character product on the fourier route
    only and only when f vanishes at no character, SNF on the snf route and
    for a Fourier entry that vanishes at one, and the free route computes
    nothing; each against SNF of the unreduced expansion."""

    @staticmethod
    def _case(rng):
        """A kind of two-variable presentation, the presentation, and a Gamma
        with |A| <= 200, its quotient cyclic or not."""
        def f():
            return random_laurent(rng, 2, max_terms=3, exp_range=(-1, 2), coeff_max=2)

        kind = rng.choice(["1x1", "zero column", "2x2", "t1 - t2"])
        rows = {
            "1x1": lambda: ((f(),),),
            "zero column": lambda: ((f(), 0),),
            "2x2": lambda: ((f(), f()), (f(), f())),
            "t1 - t2": lambda: (((t1 - t2) * random_nonzero_laurent(
                rng, 2, max_terms=2, exp_range=(-1, 1), coeff_max=2),),),
        }[kind]()
        which = rng.randrange(4)
        if which == 0:
            gamma = Subgroup.diagonal(2, rng.randint(1, 14))
        elif which == 1:
            k = rng.choice([(1, 1), (1, 2), (3, 2), (2, -3)])
            gamma = gamma_sj(k, rng.randint(1, 200 // (k[0] ** 2 + k[1] ** 2)))
        elif which == 2:  # e1 = e2 in A, so t1 - t2 maps to 0
            gamma = Subgroup(2, [(1, -1), (0, rng.randint(1, 200))])
        else:
            while True:
                gamma = Subgroup(2, [[rng.randint(-6, 6) for _ in range(2)] for _ in range(2)])
                if 1 <= gamma.index() <= 200:
                    break
        return kind, PresentedModule(2, rows), gamma

    def test_only_the_named_route_runs(self, monkeypatch):
        events = []
        snf_diagonal, companion_block = torsion.snf_diagonal, torsion._companion_block
        character_product = torsion._character_product

        def counting_snf(mat):
            events.append("snf")
            return snf_diagonal(mat)

        def counting_companion(g, ell):
            events.append("companion")
            n = len(events)
            out = companion_block(g, ell)
            del events[n:]  # the SNF of a singular block is part of the companion route
            return out

        def counting_product(f, group):
            events.append("fourier")
            return character_product(f, group)

        monkeypatch.setattr(torsion, "snf_diagonal", counting_snf)
        monkeypatch.setattr(torsion, "_companion_block", counting_companion)
        monkeypatch.setattr(torsion, "_character_product", counting_product)
        rng = random.Random(2626)
        seen, large = set(), set()
        for _ in range(80):
            kind, mod, gamma = self._case(rng)
            group = quotient(gamma)
            diag = [d for d in intlinalg.snf_diagonal(expand(mod, group)) if d]
            want = math.prod(diag), mod.m0 * group.order - len(diag)
            name, free, _ = torsion.route(mod.reduced, group)
            events.clear()
            assert torsion_and_betti(mod, group) == want, (mod, gamma)
            # a Fourier entry that vanishes at a character adds to the Betti number
            degenerate = name == "fourier" and want[1] > free * group.order
            ran = [] if name == "free" else ["snf"] if degenerate else [name]
            assert events == ran, (name, mod, gamma)
            assert want[1] >= free * group.order
            seen.add((kind, group.rank <= 1, name))
            if group.order >= torsion.FOURIER_MIN_ORDER:
                large.add((kind, group.rank <= 1, name))
        assert {name for _, _, name in seen} == {"free", "companion", "fourier", "snf"}
        assert {name for _, cyclic, name in seen if not cyclic} == {"free", "fourier", "snf"}
        # t1 - t2 divides every entry of its kind: degenerate, so the Fourier
        # route runs SNF and no product
        assert {("1x1", False, "fourier"), ("1x1", True, "fourier"),
                ("t1 - t2", False, "fourier"), ("t1 - t2", True, "fourier")} <= large
        assert {("2x2", True, "companion"), ("2x2", False, "snf"), ("t1 - t2", True, "free"),
                ("zero column", True, "companion"), ("zero column", False, "fourier")} <= seen


class TestFourierRoute:
    """One live entry f at |A| >= FOURIER_MIN_ORDER: the torsion is the exact
    product of f over the characters when f vanishes at none of them, and
    SNF of the expansion when it may."""

    @pytest.mark.parametrize("nvars, d, betti", [(2, 33, 2), (3, 4, 9)])
    def test_degenerate_samples_compute_no_product(self, monkeypatch, nvars, d, betti):
        # 1 + t1 + t2 vanishes at (omega, omega^2) and its conjugate, two
        # characters when 3 | d; 1 + t1 + t2 + t3 where one t_i is -1 and the
        # other two cancel, nine characters of (Z/4)^3
        calls = []
        product = torsion._character_product
        monkeypatch.setattr(torsion, "_character_product",
                            lambda *args: calls.append(args) or product(*args))
        f = 1 + sum(variables(nvars))
        mod = PresentedModule(nvars, ((f,),))
        group = quotient(Subgroup.diagonal(nvars, d))
        assert group.order >= torsion.FOURIER_MIN_ORDER
        assert torsion.route(mod.reduced, group)[0] == "fourier"
        tor, rank = snf(expand(mod, group))
        assert torsion_and_betti(mod, group) == (tor, group.order - rank)
        assert group.order - rank == betti
        assert calls == []

    def test_enumerates_no_element(self):
        # the screen, the bound and the product read A through W, which
        # comes from the invariant factors: the element list stays unbuilt
        mod = PresentedModule(2, ((3 + t1 + t2,),))
        group = quotient(Subgroup.diagonal(2, 40))
        assert torsion.route(mod.reduced, group)[0] == "fourier"
        tor, b = torsion_and_betti(mod, group)
        assert (b, tor.bit_length()) == (0, 2536)
        assert "_elements" not in group.__dict__

    def test_budget_and_float_oracle_at_index_4096(self):
        # m(3 + t1 + t2) = log 3, and the lattice-rule gap at d = 64 is below
        # 1e-15; a torsion off by a factor 2 moves the statistic by 1.7e-4
        mod = PresentedModule(2, ((3 + t1 + t2,),))
        group = quotient(Subgroup.diagonal(2, 64))
        assert torsion.route(mod.reduced, group)[0] == "fourier"
        start = time.perf_counter()
        tor, b = torsion_and_betti(mod, group)
        assert time.perf_counter() - start < 1.5
        assert (b, tor.bit_length()) == (0, 6493)
        assert abs(intlinalg.int_log(tor) / 4096 - math.log(3)) < 1e-12


class TestExactProductDifferential:
    """The Fourier products over F_p against SNF, an independent exact route."""

    @staticmethod
    def _random_subgroup(rng):
        kind = rng.choice(["diagonal", "cyclic", "gamma_sj"])
        if kind == "diagonal":
            return Subgroup.diagonal(2, rng.randint(1, 12))
        if kind == "cyclic":
            return Subgroup.cyclic(rng.randint(1, 144))
        k = rng.choice([(1, 1), (1, 2), (2, 1), (1, 3), (3, 2), (2, -3), (1, -4)])
        return gamma_sj(k, rng.randint(1, 144 // (k[0] ** 2 + k[1] ** 2)))

    def test_character_product_matches_snf(self):
        rng = random.Random(505)
        kinds = set()
        for _ in range(60):
            gamma = self._random_subgroup(rng)
            f = random_laurent(rng, gamma.nvars, max_terms=4, coeff_max=4)
            if f.is_zero():
                continue
            diag = intlinalg.snf_diagonal(
                expand(PresentedModule.quotient_by_ideal(gamma.nvars, [f]), gamma))
            assert len(diag) <= 144
            if all(diag):
                assert character_product(f, gamma) == math.prod(diag)
                kinds.add("full rank")
            else:
                assert character_product(f, gamma) == 0
                kinds.add("rank short")
        assert kinds == {"full rank", "rank short"}

    def test_branched_oracle_is_fox_formula(self):
        # Z[t]/(Delta, 1 + t + ... + t^(l-1)) over Z/l has order |Res(Delta, N_l)|
        rng = random.Random(506)
        kinds = set()
        for _ in range(80):
            dpoly = random_laurent(rng, 1, max_terms=4, exp_range=(-2, 3), coeff_max=4)
            if dpoly.is_zero():
                continue
            ell = rng.randint(1, 12)
            norm = sum((t ** i for i in range(ell)), LaurentPoly.zero(1))
            mod = PresentedModule.quotient_by_ideal(1, [dpoly, norm])
            tor, b = torsion_and_betti(mod, Subgroup.cyclic(ell))
            if b:
                with pytest.raises(OracleDegenerateError):
                    cyclic_branched_oracle(dpoly, ell)
                kinds.add("degenerate")
            else:
                assert cyclic_branched_oracle(dpoly, ell) == tor
                kinds.add("finite")
        assert kinds == {"degenerate", "finite"}

    def test_character_product_budget_at_index_1024(self):
        # SNF of the expansion: torsion_order takes the Fourier route here
        gamma = Subgroup.diagonal(2, 32)
        want, _ = snf(expand(PresentedModule.quotient_by_ideal(2, [3 + t1 + t2]), gamma))
        start = time.perf_counter()
        got = character_product(3 + t1 + t2, gamma)
        assert time.perf_counter() - start < 1.0
        assert got == want

    def test_character_product_budget_on_a_large_cyclic_quotient(self):
        # |A| = 761 is prime: the nontrivial characters are one Galois orbit of 760
        gamma = gamma_sj((20, 19), 1)
        assert quotient(gamma).order == 761
        want = torsion_order(PresentedModule.quotient_by_ideal(2, [1 + t1 + t2]), gamma)
        start = time.perf_counter()
        got = character_product(1 + t1 + t2, gamma)
        assert time.perf_counter() - start < 1.0
        assert got == want

    @pytest.mark.parametrize("ell", [1, 2, 3, 12, 97, 360, 761, 1024, 1499, 1500])
    def test_character_product_closed_form(self, ell):
        # prod (zeta^k - 2) = (-1)^ell (2^ell - 1): negative for odd ell
        assert character_product(t - 2, Subgroup.cyclic(ell)) == 2 ** ell - 1

    def test_branched_oracle_at_401_matches_snf(self, fig8_text):
        fig8 = branched_module(alexander_module(parse_presentation(fig8_text)), 1)
        want = torsion_order(fig8, Subgroup.cyclic(401))
        assert cyclic_branched_oracle(t ** 2 - 3 * t + 1, 401) == want

    def test_prime_test_matches_trial_division(self):
        small = [q for q in range(2, 317) if all(q % d for d in range(2, q))]
        for n in range(10 ** 5):
            want = n > 1 and all(n % q for q in small if q * q <= n)
            assert torsion._is_prime(n) == want, n

    @pytest.mark.parametrize("e", [1, 2, 6, 12, 50, 97, 210, 1024])
    def test_prime_search_finds_every_prime_1_mod_e(self, monkeypatch, e):
        # the pre-sieve may strike no prime, 2 included (e = 1, 2) and the
        # sieve primes themselves (e = 6: 7, 13, ...), and Miller-Rabin
        # keeps no composite
        monkeypatch.setattr(torsion, "_PRIME_LIMIT", 10 ** 5)
        small = [q for q in range(2, 317) if all(q % d for d in range(2, q))]
        want = [p for p in range(10 ** 5 - 1, 1, -1)
                if (p - 1) % e == 0 and all(p % q for q in small if q * q <= p)]
        assert list(torsion._primes_1_mod(e)) == want

    def test_parseval_certificate(self):
        # prod |f(chi)|^2 <= ||F||_2^(2n) over the n = |A| characters, F the
        # push-forward of f, and < 3 ||F||_2^(2(n-1)) over the nontrivial
        # ones: the bounds the prime count rests on, against SNF
        rng = random.Random(3030)
        for _ in range(200):
            n = rng.randint(1, 3)
            while True:
                gamma = Subgroup(n, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
                if 1 <= gamma.index() <= 300:
                    break
            f = random_nonzero_laurent(rng, n, max_terms=3, coeff_max=3)
            group = quotient(gamma)
            norm2 = sum(c * c for c in project_poly(f, group))
            tor, rank = snf(expand([[f]], group))
            tor *= rank == group.order
            assert tor ** 2 <= norm2 ** group.order, (f, gamma)
            if at_one := abs(sum(f.coefficients())):
                assert torsion._character_product(f, group, skip_trivial=True) * at_one == tor
                assert (tor // at_one) ** 2 < 3 * norm2 ** (group.order - 1), (f, gamma)

    def test_parseval_bound_sets_the_prime_count(self, monkeypatch):
        # 2 ||F||_2^n = 2 * 5^750 for t - 2 over Z/1500 has 1743 bits, where
        # the triangle inequality's 2 ||f||_1^n = 2 * 3^1500 has 2379
        counted, search = [], torsion._primes_1_mod

        def counting_search(e):
            for p in search(e):
                counted.append(p)
                yield p

        monkeypatch.setattr(torsion, "_primes_1_mod", counting_search)
        assert character_product(t - 2, Subgroup.cyclic(1500)) == 2 ** 1500 - 1
        bits = (2 * 5 ** 750).bit_length()
        assert len(counted) <= -(-bits // 30) + 1

    def test_running_out_of_primes_is_an_error(self, monkeypatch):
        # primes = 1 mod 50 below 200 are 101 and 151: too few for 2^50 - 1
        monkeypatch.setattr(torsion, "_PRIME_LIMIT", 200)
        with pytest.raises(ArithmeticError, match="too few primes"):
            character_product(t - 2, Subgroup.cyclic(50))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            character_product(3 + t1 + t2, Subgroup.cyclic(4))

    def test_import_leaves_mpmath_unloaded(self):
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", "import torgrowth, sys; print('mpmath' in sys.modules)"],
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        assert out.strip() == "False"


class TestOracleEquivalence:
    def test_trefoil_branched(self, trefoil_text):
        mod = alexander_module(parse_presentation(trefoil_text))
        bm = branched_module(mod, 1)
        dpoly = delta(mod)
        for ell in range(1, 13):
            got = torsion_order(bm, Subgroup.cyclic(ell))
            if ell % 6 == 0:
                assert got == 1  # classical product degenerate; SNF path only
            else:
                assert got == cyclic_branched_oracle(dpoly, ell)

    def test_unknot_branched_is_sphere(self):
        bm = branched_module(PresentedModule.free(1, 1), 1)
        for ell in (1, 2, 3, 5, 8):
            assert torsion_order(bm, Subgroup.cyclic(ell)) == 1


class TestKoszul:
    def test_balance_on_group_algebra_pairs(self):
        rng = random.Random(51)
        done = 0
        while done < 10:
            A = FinAbGroup.from_invariant_factors(rng.choice([[2], [3], [4], [2, 2], [6]]))
            f = random_laurent(rng, A.nvars, max_terms=3, exp_range=(0, 2))
            g = random_laurent(rng, A.nvars, max_terms=3, exp_range=(0, 2))
            f = f + 3  # push away from vanishing characters
            P = mult_matrix(project_poly(f, A), A)
            Q = mult_matrix(project_poly(g, A), A)
            try:
                h1, h0 = koszul_orders(P, Q)
            except ValueError:
                continue
            assert h1 == h0
            done += 1

    def test_requires_commuting(self):
        with pytest.raises(ValueError):
            koszul_orders([[1, 0], [0, 2]], [[0, 1], [0, 0]])

    def test_requires_injective(self):
        with pytest.raises(ValueError):
            koszul_orders([[0, 0], [0, 0]], [[1, 0], [0, 1]])


class TestGrowthSample:
    def test_fields(self):
        M = PresentedModule(1, ((t - 2,),))
        s = growth_sample(M, Subgroup.cyclic(10), "cyclic:10")
        assert s.index == 10
        assert s.torsion_order == 1023
        assert s.betti == 0
        assert s.min_norm == 10.0
        assert s.growth_stat == pytest.approx(math.log(1023) / 10)
        assert s.direction == (1.0,)

    def test_csv_roundtrip(self):
        M = PresentedModule(1, ((t - 2,),))
        s = growth_sample(M, Subgroup.cyclic(7), "cyclic:7")
        row = s.csv_row()
        back = GrowthSample.from_csv_row(row)
        assert back.torsion_order == s.torsion_order
        assert back.growth_stat == s.growth_stat
        assert back.log_torsion == s.log_torsion
        # growth_stat reconstructs the exact integer within float precision
        assert math.exp(back.growth_stat * back.index) == pytest.approx(
            s.torsion_order, rel=1e-12
        )

    def test_csv_roundtrip_past_the_digit_limit(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        s = GrowthSample("x", 1, 1.0, 3 ** 20000, 0)
        assert GrowthSample.from_csv_row(s.csv_row()) == s
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        for bad in ("1.5", "1e3", "nan", " 7", ""):
            with pytest.raises(ValueError):
                GrowthSample.from_csv_row(f"x;1;1.0;{bad};0.0;0.0;0")

    def test_csv_roundtrip_keeps_the_direction(self):
        M = PresentedModule(2, ((3 + t1 + t2,),))
        s = growth_sample(M, gamma_sj((2, 1), 3), "gamma_sj")
        assert s.direction is not None
        assert GrowthSample.from_csv_row(s.csv_row()) == s
        # rows written before the direction column read back without one
        assert GrowthSample.from_csv_row(s.csv_row().rsplit(";", 1)[0]) == GrowthSample(
            s.gamma, s.index, s.min_norm, s.torsion_order, s.betti)
        for bad in ("3", "{}", "[1.0"):
            with pytest.raises(ValueError):
                GrowthSample.from_csv_row(f"x;1;1.0;1;0.0;0.0;0;{bad}")

    def test_invariants(self):
        with pytest.raises(ValueError):
            GrowthSample("x", 2, 1.0, 0, 0)
