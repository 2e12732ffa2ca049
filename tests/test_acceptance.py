"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import itertools
import math
import random
import time
from operator import mul

from conftest import random_laurent, random_nonzero_laurent
from lemmas import (alpha_ideal, beta_ideal, direct_sum, from_invariant_factors, intersect_ideals,
                    koszul_orders, random_group, rho_of_word, subgroup_closure, sum_ideals)
from torgrowth.groupalg import mult_matrix, project_poly
from torgrowth.intlinalg import bareiss_det, snf_diagonal
from torgrowth.lattices import Subgroup
from torgrowth.laurent import LaurentPoly, div_exact, gcd, normalize_unit, variables
from torgrowth.mahler import mahler_lawton, mahler_quadrature
from torgrowth.presmod import (
    GroupPresentation,
    PresentedModule,
    alexander_module,
    all_alexander,
    branched_module,
    delta,
    fox_derivative,
    parse_presentation,
    rank,
)
from torgrowth.torsion import (
    OracleDegenerateError,
    character_product,
    cyclic_branched_oracle,
    expand,
    growth_sample,
    snf,
    torsion_order,
)

t, = variables(1)
t1, t2 = variables(2)

LOG2 = math.log(2)
FIG8_MEASURE = 0.962424


class _Criterion:
    def __init__(self, number: int, title: str, budget_s: float | None):
        self.number = number
        self.title = title
        self.budget = budget_s
        self.t0 = time.perf_counter()

    def finish(self, ok: bool, detail: str = ""):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if ok else "FAIL"
        budget = f" (budget {self.budget:.0f}s)" if self.budget else ""
        print(f"[criterion {self.number}] {status} in {elapsed:.1f}s{budget}: "
              f"{self.title}. {detail}")
        assert ok, f"criterion {self.number}: {detail}"
        if self.budget is not None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.1f}s)"
            )


def test_criterion_1_exact_growth_one_variable():
    c = _Criterion(1, "exact torsion growth of the t-2 module", 10)
    M = PresentedModule(1, ((t - 2,),))
    exact = all(
        torsion_order(M, Subgroup.cyclic(ell)) == 2 ** ell - 1 for ell in range(1, 31)
    )
    g50 = growth_sample(M, Subgroup.cyclic(50), "cyclic:50")
    close = abs(g50.growth_stat - LOG2) < 1e-3
    c.finish(
        exact and close,
        f"torsion exact for l=1..30; |growth(50) - log2| = {abs(g50.growth_stat - LOG2):.2e}",
    )


def test_criterion_2_knot_pipeline_delta(trefoil_text, fig8_text):
    c = _Criterion(2, "Fox pipeline recovers the knot polynomials", 1)
    d_tre = delta(alexander_module(parse_presentation(trefoil_text)))
    d_fig = delta(alexander_module(parse_presentation(fig8_text)))
    ok = d_tre == t ** 2 - t + 1 and d_fig == t ** 2 - 3 * t + 1
    c.finish(ok, f"trefoil {d_tre}; figure-eight {d_fig}")


def test_criterion_3_fig8_branched_nonzero_measure(fig8_text):
    c = _Criterion(3, "branched covers, nonvanishing measure (figure-eight)", 120)
    mod = alexander_module(parse_presentation(fig8_text))
    bm = branched_module(mod, 1)
    dpoly = delta(mod)
    mismatches = []
    for ell in range(1, 31):
        got = torsion_order(bm, Subgroup.cyclic(ell))
        want = cyclic_branched_oracle(dpoly, ell)
        if got != want:
            mismatches.append((ell, got, want))
    g100 = growth_sample(bm, Subgroup.cyclic(100), "cyclic:100")
    gap = abs(g100.growth_stat - FIG8_MEASURE)
    c.finish(
        not mismatches and gap < 0.05,
        f"oracle equality l=1..30 ({len(mismatches)} mismatches); "
        f"|growth(100) - {FIG8_MEASURE}| = {gap:.4f}",
    )


def test_criterion_4_trefoil_branched_zero_measure(trefoil_text):
    c = _Criterion(4, "branched covers, vanishing measure (trefoil)", 120)
    mod = alexander_module(parse_presentation(trefoil_text))
    bm = branched_module(mod, 1)
    dpoly = delta(mod)
    pattern = []
    oracle_ok = True
    for ell in range(2, 9):
        got = torsion_order(bm, Subgroup.cyclic(ell))
        pattern.append(got)
        if ell % 6 == 0:
            # the product formula degenerates at the sixth roots of unity;
            # only the elimination path produces the value here
            try:
                cyclic_branched_oracle(dpoly, ell)
                oracle_ok = False
            except OracleDegenerateError:
                pass
        else:
            oracle_ok = oracle_ok and got == cyclic_branched_oracle(dpoly, ell)
    # per-l values, validated against the product oracle where it is defined
    # and against two independent eliminations at l = 6 (torsion-free there)
    expected = [3, 4, 3, 1, 1, 1, 3]
    g200 = growth_sample(bm, Subgroup.cyclic(200), "cyclic:200")
    c.finish(
        oracle_ok and pattern == expected and g200.growth_stat < 0.02,
        f"pattern l=2..8 is {pattern}; growth(200) = {g200.growth_stat:.4f}",
    )


def test_criterion_5_two_variable_nonvanishing():
    c = _Criterion(5, "two-variable module away from the torus zero set", 600)
    f = 3 + t1 + t2
    M = PresentedModule.quotient_by_ideal(2, [f])
    # the reference is SNF of the expansion: at d = 6 torsion_order is the character product
    exact_ok = all(
        torsion_order(M, gamma) == character_product(f, gamma) == snf(expand(M, gamma))[0]
        for gamma in (Subgroup.diagonal(2, d) for d in range(1, 7))
    )
    quad = mahler_quadrature(f, samples=10 ** 7, seed=2024)
    g20 = growth_sample(M, Subgroup.diagonal(2, 20), "diagonal:20")
    gap = abs(g20.growth_stat - quad.value)
    c.finish(
        exact_ok and quad.error_bound < 0.005 and gap < 0.02,
        f"character product exact for d<=6; quadrature {quad.value:.5f}"
        f"±{quad.error_bound:.5f}; |growth(20) - quadrature| = {gap:.4f}",
    )


def test_criterion_6_two_variable_vanishing():
    c = _Criterion(6, "two-variable module meeting the torus zero set", 600)
    f = 1 + t1 + t2
    M = PresentedModule.quotient_by_ideal(2, [f])
    quad = mahler_quadrature(f, samples=2 * 10 ** 6, seed=77)
    g16 = growth_sample(M, Subgroup.diagonal(2, 16), "diagonal:16")
    gap = abs(g16.growth_stat - quad.value)
    c.finish(
        gap < 0.1 and abs(quad.value - 0.3231) < 0.01,
        f"quadrature {quad.value:.5f}; growth(16) = {g16.growth_stat:.5f}; gap {gap:.4f}",
    )


def test_criterion_7_pseudo_isomorphism_invariance():
    c = _Criterion(7, "pseudo-isomorphic modules share the growth rate", None)
    M1 = PresentedModule.quotient_by_ideal(2, [3 + t1 + t2])
    pseudo_zero = PresentedModule.quotient_by_ideal(2, [LaurentPoly.constant(2, 2), t1 - 1])
    M2 = direct_sum(M1, pseudo_zero)
    gaps = []
    for d in (4, 8, 12, 16):
        gamma = Subgroup.diagonal(2, d)
        a = growth_sample(M1, gamma, f"d={d}").growth_stat
        b = growth_sample(M2, gamma, f"d={d}").growth_stat
        gaps.append(abs(a - b))
    c.finish(
        gaps[-1] < 0.05 and gaps[-1] < gaps[0],
        f"gaps over d=4,8,12,16: {[round(g, 4) for g in gaps]}",
    )


def test_criterion_8_group_ring_order_identities():
    c = _Criterion(8, "exact subgroup-ideal order identities in Z[A]", 60)
    rng = random.Random(2024)
    checks = []
    for _ in range(20):
        A = random_group(rng, max_order=200)
        bgens = [tuple(rng.randrange(d) for d in A.invariant_factors)
                 for _ in range(rng.randint(0, 2))]
        B = subgroup_closure(A, bgens)
        al, be = alpha_ideal(A, bgens), beta_ideal(A, bgens)
        expected = len(B) ** (A.order // len(B))
        # |Z[A]/(alpha + beta)| = |B|^(|A|/|B|), rank alpha = |A|/|B|, alpha * beta = 0
        checks += [sum_ideals([al, be]).index() == expected,
                   al.rank() == A.order // len(B),
                   not any(sum(map(mul, row, vb)) for va in al.gens[:2]
                           for row in mult_matrix(va, A) for vb in be.gens[:2])]
        # a second subgroup B2 bounds the order of (alpha + alpha2) + (beta ∩ beta2)
        bgens2 = [tuple(rng.randrange(d) for d in A.invariant_factors)]
        B2 = subgroup_closure(A, bgens2)
        alsum = sum_ideals([al, alpha_ideal(A, bgens2)])
        beint = intersect_ideals([be, beta_ideal(A, bgens2)])
        bound = expected * len(B2) ** (A.order // len(B2))
        checks.append(sum_ideals([alsum, beint]).index() <= bound)
    c.finish(
        all(checks),
        f"{len(checks)} checks over 20 randomized (A, B) pairs, "
        f"{checks.count(False)} failures",
    )


def test_criterion_9_lawton_convergence_and_koszul():
    c = _Criterion(9, "one-variable specializations converge; Koszul balance", None)
    f = 1 + t1 + t2
    quad = mahler_quadrature(f, samples=2 * 10 ** 6, seed=9)
    law = mahler_lawton(f, [(1, m) for m in (10, 20, 40, 80)])
    gap = abs(law.value - quad.value)
    rng = random.Random(99)
    balanced = 0
    attempts = 0
    while balanced < 10 and attempts < 100:
        attempts += 1
        A = from_invariant_factors(rng.choice([[2], [3], [4], [2, 2], [6], [2, 4]]))
        p = random_laurent(rng, A.nvars, max_terms=3, exp_range=(0, 2)) + 3
        q = random_laurent(rng, A.nvars, max_terms=3, exp_range=(0, 2))
        P = mult_matrix(project_poly(p, A), A)
        Q = mult_matrix(project_poly(q, A), A)
        try:
            h1, h0 = koszul_orders(P, Q)
        except ValueError:
            continue
        if h1 != h0:
            c.finish(False, f"Koszul balance violated: |H1|={h1}, |H0|={h0}")
        balanced += 1
    c.finish(
        gap <= 0.02 and balanced == 10,
        f"|specialized(m=80) - quadrature| = {gap:.4f}; "
        f"{balanced} balanced operator pairs",
    )


def _battery_snf_chains(cases: int, seed: int) -> int:
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        diag = snf_diagonal(M)
        nz = [d for d in diag if d]
        if any(b % a for a, b in zip(nz, nz[1:])):
            failures += 1
            continue
        # d1*...*dk = gcd of k x k minors on small matrices
        if m <= 4 and n <= 4:
            prod = 1
            for k, dk in enumerate(nz, start=1):
                prod *= dk
                g = 0
                for rs in itertools.combinations(range(m), k):
                    for cs in itertools.combinations(range(n), k):
                        g = math.gcd(g, bareiss_det([[M[i][j] for j in cs] for i in rs]))
                if g != prod:
                    failures += 1
                    break
    return failures


def _battery_gcd_axioms(cases: int, seed: int) -> int:
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        nv = rng.choice([1, 2])
        f = random_laurent(rng, nv)
        g = random_laurent(rng, nv)
        h = random_nonzero_laurent(rng, nv)
        d = gcd(f, g)
        if gcd(f, LaurentPoly.zero(nv)) != normalize_unit(f):
            failures += 1
            continue
        if not d.is_zero():
            if div_exact(f, d) is None or div_exact(g, d) is None:
                failures += 1
                continue
        if gcd(g, f) != d:
            failures += 1
            continue
        if gcd(f * h, g * h) != normalize_unit(d * h):
            failures += 1
    return failures


def _battery_fox_identity(cases: int, seed: int) -> int:
    rng = random.Random(seed)
    pres = GroupPresentation(3, (), (t1, t2, t1 * t2 ** -1))
    failures = 0
    for _ in range(cases):
        w = tuple(rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 12)))
        total = LaurentPoly.zero(2)
        for gidx in range(3):
            total = total + fox_derivative(w, gidx, pres) * (pres.rho[gidx] - 1)
        if total != rho_of_word(pres, w) - 1:
            failures += 1
    return failures


def _battery_alexander_divisibility(cases: int, seed: int) -> int:
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        nv = rng.choice([1, 2])
        m1, m0 = rng.randint(1, 3), rng.randint(1, 3)
        M = PresentedModule(
            nv,
            tuple(
                tuple(random_laurent(rng, nv, max_terms=2, exp_range=(-1, 2), coeff_max=2)
                      for _ in range(m0))
                for _ in range(m1)
            ),
        )
        polys = all_alexander(M)
        r = rank(M)
        for j, p in enumerate(polys):
            if j < r and not p.is_zero():
                failures += 1
                break
            if j == r and p.is_zero():
                failures += 1
                break
            if j >= 1 and not polys[j - 1].is_zero():
                if p.is_zero() or div_exact(polys[j - 1], p) is None:
                    failures += 1
                    break
    return failures


def _battery_normalize_idempotent(cases: int, seed: int) -> int:
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        nv = rng.choice([1, 2, 3])
        p = random_laurent(rng, nv, max_terms=4)
        u = LaurentPoly.monomial(tuple(rng.randint(-3, 3) for _ in range(nv)),
                                 rng.choice([1, -1]))
        once = normalize_unit(p)
        if normalize_unit(once) != once:
            failures += 1
            continue
        if normalize_unit(u * p) != once:
            failures += 1
    return failures


def test_criterion_10_property_batteries():
    c = _Criterion(10, "seeded property batteries (>= 200 cases each)", 120)
    batteries = {
        "snf-divisibility": _battery_snf_chains(200, 1),
        "gcd-axioms": _battery_gcd_axioms(200, 2),
        "fox-identity": _battery_fox_identity(250, 3),
        "alexander-divisibility": _battery_alexander_divisibility(200, 4),
        "normalize-idempotence": _battery_normalize_idempotent(250, 5),
    }
    total_failures = sum(batteries.values())
    c.finish(
        total_failures == 0,
        "; ".join(f"{name}: {fails} failures" for name, fails in batteries.items()),
    )
