import math
import random
import time

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from conftest import DATA, random_nonzero_laurent
from torgrowth import mahler
from torgrowth.laurent import LaurentPoly, gcd, parse_poly, variables
from torgrowth.mahler import (
    JENSEN_TOL,
    MahlerEstimate,
    NonconvergenceError,
    default_lawton_schedule,
    mahler_boyd,
    mahler_lawton,
    mahler_quadrature,
    mahler_univariate,
)
from torgrowth.presmod import alexander_module, delta, parse_presentation

t, = variables(1)
t1, t2 = variables(2)

LOG_GOLDEN_SQ = math.log((3 + math.sqrt(5)) / 2)
SMYTH = 0.3230659472194505  # m(1 + t1 + t2), Smyth (1981)
TWO_G_OVER_PI = 0.5831218080616375  # m(1 + t1 + t2 - t1 t2) = 2G/pi, G Catalan's constant


def nan_root_finder(coeffs):
    """An Aberth result that overflowed: one root is NaN, every bound is 0."""
    deg = len(coeffs) - 1
    return [complex("nan")] + [1j] * (deg - 1), [0.0] * deg


class TestJensen:
    def test_linear(self):
        est = mahler_univariate(t - 2)
        assert est.method == "jensen"
        assert est.value == pytest.approx(math.log(2), abs=1e-9)
        assert est.error_bound <= 1e-9

    def test_monomial(self):
        assert mahler_univariate(LaurentPoly.monomial((7,), 1)).value == 0.0
        assert mahler_univariate(LaurentPoly.monomial((-2,), -1)).value == 0.0
        # and so is every product of cyclotomic polynomials: its roots lie on |z| = 1
        for f in (t ** 2 - t + 1, t ** 4 + t ** 3 + t ** 2 + t + 1, (t - 1) * (t + 1)):
            assert mahler_univariate(f).value == pytest.approx(0.0, abs=1e-9)

    def test_quadratic(self):
        est = mahler_univariate(t ** 2 - 3 * t + 1)
        assert est.value == pytest.approx(LOG_GOLDEN_SQ, abs=1e-9)

    def test_constant(self):
        assert mahler_univariate(LaurentPoly.constant(1, 5)).value == pytest.approx(math.log(5))

    def test_lehmer(self):
        lehmer = parse_poly("t^10 + t^9 - t^7 - t^6 - t^5 - t^4 - t^3 + t + 1")
        assert mahler_univariate(lehmer).value == pytest.approx(0.1623576120, abs=1e-8)

    def test_lehmer_at_t_to_the_25(self):
        # m(f(t^k)) = m(f): degree 250, and every gap between terms is 25
        lehmer = parse_poly("t^10 + t^9 - t^7 - t^6 - t^5 - t^4 - t^3 + t + 1")
        est = mahler_univariate(lehmer.tau((25,)))
        assert est.value == pytest.approx(0.1623576120, abs=1e-8)
        assert est.error_bound <= JENSEN_TOL

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            mahler_univariate(LaurentPoly.zero(1))

    def test_overflowed_roots_are_not_certified(self, monkeypatch):
        # max(1.0, nan) is 1.0, so a NaN root would add 0 with no error
        monkeypatch.setattr(mahler, "_aberth_roots", nan_root_finder)
        with pytest.raises(NonconvergenceError):
            mahler_univariate(t ** 40 - 10 ** 30 * t + 1)

    def test_one_root_finder_run_per_certification(self, monkeypatch):
        # finite roots whose disks are too wide to certify: no retry follows
        calls = []

        def wide_root_finder(coeffs):
            calls.append(coeffs)
            deg = len(coeffs) - 1
            return [2.0 + 0j] * deg, [1.0] * deg

        monkeypatch.setattr(mahler, "_aberth_roots", wide_root_finder)
        with pytest.raises(NonconvergenceError):
            mahler_univariate(t ** 2 - 3 * t + 1)
        assert len(calls) == 1

    def test_wide_coefficient_range_certifies(self):
        # one root of modulus 1e-30 and 39 of modulus ~5.9: the Aberth start
        # points must follow both circles, or the iteration overflows
        est = mahler_univariate(t ** 40 - 10 ** 30 * t + 1)
        assert est.value == pytest.approx(30 * math.log(10), abs=1e-9)  # 69.0775527898
        assert est.error_bound <= 1e-9

    @pytest.mark.parametrize("deg", [120, 300])
    def test_root_beyond_the_float_range_of_horner_certifies(self, deg):
        # 1000^deg overflows plain Horner at the root near 1000; the ratio
        # p/p' comes from the reversed polynomial at 1/z there
        est = mahler_univariate(t ** deg - 1000 * t ** (deg - 1) + 1)
        assert est.value == pytest.approx(math.log(1000), abs=1e-9)
        assert est.error_bound <= 1e-9

    def test_agrees_with_mpmath_polyroots(self):
        rng = random.Random(64)
        for _ in range(40):
            deg = rng.randint(1, 30)
            coeffs = [rng.choice([0, rng.randint(-10, 10)]) for _ in range(deg + 1)]
            coeffs[0] = coeffs[0] or 1
            coeffs[-1] = coeffs[-1] or -1
            est = mahler_univariate(
                LaurentPoly(1, {(i,): c for i, c in enumerate(coeffs) if c})
            )
            roots = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=20)
            ref = math.log(abs(coeffs[-1])) + sum(
                math.log(max(1.0, float(abs(r)))) for r in roots
            )
            assert abs(est.value - ref) <= est.error_bound + 1e-9, (coeffs, est.value, ref)

    def test_lawton_images_of_1_t1_t2_t3(self):
        f = 1 + sum(variables(3))
        expected = {
            (1, 4, 16): 0.4249349003800582,
            (1, 8, 64): 0.4267157715999306,
        }
        for k, value in expected.items():
            assert mahler_univariate(f.tau(k)).value == pytest.approx(value, abs=1e-9)
        # the benchmark's top rung moves only in its last digits
        est = mahler_univariate(f.tau((1, 16, 256)))
        assert abs(est.value - 0.42646092499659544) <= 1e-13
        assert est.error_bound <= 1e-10
        t0 = time.perf_counter()
        est = mahler_univariate(f.tau((1, 32, 1024)))
        assert time.perf_counter() - t0 < 2.0
        assert est.error_bound <= 1e-9

    @pytest.mark.parametrize("f, value", [
        ((1 - t) ** 2, 0.0),
        ((1 - t) ** 3, 0.0),  # unsplit, its disks must not certify 1.12e-5 with bound 0
        ((1 + t + t ** 3) ** 2, None),  # unsplit, it does not certify at all
        (3 * (t - 2) ** 2 * (t ** 2 - 3 * t + 1) ** 3, 2 * math.log(2) + 3 * LOG_GOLDEN_SQ + math.log(3)),
    ], ids=["(1-t)^2", "(1-t)^3", "(1+t+t^3)^2", "3(t-2)^2(t^2-3t+1)^3"])
    def test_repeated_roots_are_certified(self, f, value):
        if value is None:
            value = 2 * mahler_univariate(1 + t + t ** 3).value
        est = mahler_univariate(f)
        assert est.method == "jensen" and est.error_bound <= JENSEN_TOL
        assert abs(est.value - value) <= est.error_bound + 1e-12
        assert [d["multiplicity"] for d in est.diagnostics["factors"]][-1] > 1

    def test_inclusion_disks_hold_a_triple_root(self):
        # p(z) rounds to 0 eps^(1/3) off the root 1: the rounding bound keeps
        # every disk wide enough to reach it
        roots, bounds = mahler._aberth_roots([1, -3, 3, -1])
        assert np.all(np.abs(np.asarray(roots) - 1) <= bounds)

    def test_exact_gcd_only_after_a_failed_certification(self, monkeypatch):
        calls = []
        monkeypatch.setattr(mahler, "gcd", lambda f, g: calls.append(f) or gcd(f, g))
        mahler_univariate((1 + sum(variables(3))).tau((1, 16, 256)))
        assert calls == []
        mahler_univariate((1 - t) ** 2)
        assert calls

    def test_unit_invariance_exact(self):
        rng = random.Random(60)
        for _ in range(60):
            f = random_nonzero_laurent(rng, 1, max_terms=4)
            u = LaurentPoly.monomial((rng.randint(-3, 3),), rng.choice([1, -1]))
            assert mahler_univariate(u * f).value == mahler_univariate(f).value

    def test_additivity(self):
        rng = random.Random(61)
        for _ in range(40):
            f = random_nonzero_laurent(rng, 1, max_terms=3)
            g = random_nonzero_laurent(rng, 1, max_terms=3)
            ef, eg, efg = mahler_univariate(f), mahler_univariate(g), mahler_univariate(f * g)
            tol = ef.error_bound + eg.error_bound + efg.error_bound + 1e-9
            assert abs(efg.value - ef.value - eg.value) <= tol

    def test_nonnegative(self):
        rng = random.Random(62)
        for _ in range(60):
            f = random_nonzero_laurent(rng, 1, max_terms=4)
            assert mahler_univariate(f).value >= -1e-12


def reference_roots(coeffs):
    """numpy.roots (LAPACK companion eigenvalues), independent of Aberth's sweeps."""
    return np.roots(np.array(coeffs[::-1], dtype=float))


class TestAberth:
    @staticmethod
    def check(coeffs, ref):
        roots, bounds = mahler._aberth_roots(coeffs)
        roots, bounds = np.asarray(roots), np.asarray(bounds)
        assert len(roots) == len(ref) == len(coeffs) - 1
        dist = np.abs(roots[:, None] - ref[None, :])
        nearest = dist.argmin(axis=1)
        # one computed root per reference root, each within its disk
        assert len(set(nearest.tolist())) == len(ref)
        assert np.all(dist.min(axis=1) <= bounds + 1e-9 * np.maximum(1, np.abs(ref[nearest])))
        assert np.all(bounds <= 1e-6)
        f = LaurentPoly(1, {(i,): c for i, c in enumerate(coeffs) if c})
        est = mahler_univariate(f)
        value = math.log(abs(coeffs[-1])) + float(np.log(np.maximum(np.abs(ref), 1)).sum())
        assert abs(est.value - value) <= est.error_bound + 1e-9

    @pytest.mark.parametrize("seed, deg", [(0, 40), (1, 150), (2, 300)])
    def test_dense_against_numpy_roots(self, seed, deg):
        rng = random.Random(seed)
        coeffs = [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(deg + 1)]
        self.check(coeffs, reference_roots(coeffs))

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_sparse_with_gaps_above_99(self, seed):
        rng = random.Random(seed)
        exps = sorted({0, 512, *rng.sample(range(1, 512), 4)})
        assert max(b - a for a, b in zip(exps, exps[1:])) > 99
        coeffs = [0] * 513
        for e in exps:
            coeffs[e] = rng.choice([-1, 1]) * rng.randint(1, 5)
        self.check(coeffs, reference_roots(coeffs))

    def test_newton_polygon_of_three_edges(self):
        # roots of modulus 10^(-6/5), about 1 and 10^(6/7): each edge's circle
        # converges at its own sweep, and held roots still enter the sums
        f = (10 ** 6 * t ** 5 + 1) * (t ** 10 + t - 1) * (t ** 7 - 10 ** 6)
        coeffs = mahler._poly_coeffs(f)
        assert len(mahler._start_points(coeffs)) == 22
        ref = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=60)
        self.check(coeffs, np.array([complex(r) for r in ref]))

    def test_power_by_squaring(self):
        rng = np.random.default_rng(7)
        z = rng.uniform(0.5, 1.5, 64) * np.exp(2j * np.pi * rng.random(64))
        eps = np.finfo(float).eps
        for k in range(1, 1024):
            ref = z ** k
            # both sides lose about k·eps relative
            assert np.all(np.abs(mahler._power(z, k) - ref) <= 8 * k * eps * np.abs(ref)), k


class TestLawton:
    def test_univariate_rescaling_invariance(self):
        f = t ** 2 - 3 * t + 1
        ref = mahler_univariate(f).value
        for k in ([1], [4], [9]):
            assert mahler_lawton(f, [k]).value == pytest.approx(ref, abs=1e-9)

    def test_cyclotomic_image_vanishes(self):
        est = mahler_lawton(t1 * t2 - 1, [(1, 2), (1, 5), (1, 11)])
        assert est.value == pytest.approx(0.0, abs=1e-10)

    def test_convergence_toward_quadrature(self):
        est = mahler_lawton(1 + t1 + t2, [(1, m) for m in (10, 15, 20)])
        assert est.value == pytest.approx(0.3230659, abs=0.02)
        assert len(est.diagnostics["values"]) == 3

    def test_final_gap_below_first_gap(self):
        vals = mahler_lawton(
            1 + t1 + t2, [(1, m) for m in (5, 10, 20, 40, 80)]
        ).diagnostics["values"]
        gaps = [abs(a - b) for a, b in zip(vals, vals[1:])]
        assert gaps[-1] < gaps[0]

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            mahler_lawton(1 + t1 + t2, [(1, 10), (1, 5)])
        with pytest.raises(ValueError):
            mahler_lawton(1 + t1 + t2, [])
        with pytest.raises(ValueError):
            mahler_lawton(t1 - t2, [(1, 1)])  # image collapses to 0

    def test_one_value_bounds_nothing_in_several_variables(self):
        # t2 -> 1 gives log 2, but m(1 + t1 + t2) = 0.3231: one value has no gap
        est = mahler_lawton(1 + t1 + t2, [(1, 0)])
        assert est.value == pytest.approx(math.log(2))
        assert est.error_bound == math.inf
        # in one variable every specialization has the measure of f
        est = mahler_lawton(t - 2, [(3,)])
        assert est.value == pytest.approx(math.log(2)) and est.error_bound == 0.0

    def test_default_schedule(self):
        ks = default_lawton_schedule(2)
        assert ks[0] == (1, 8) and ks[-1] == (1, 64)
        est = mahler_lawton(3 + t1 + t2)
        assert est.value == pytest.approx(math.log(3), abs=0.01)

    def test_default_three_variable_target_certifies(self):
        # (1, 64, 4096), of degree 4096, does not certify: its Jensen bound
        # is above JENSEN_TOL
        assert default_lawton_schedule(3)[-1] == (1, 32, 1024)
        est = mahler_lawton(1 + sum(variables(3)))
        assert abs(est.value - 7 * 1.2020569031595942 / (2 * math.pi ** 2)) <= 2e-4

    def test_default_ladder_drops_rungs_past_the_jensen_floor(self):
        # t3^2 doubles every rung's degree: (1, 32, 1024) becomes degree 2048,
        # past 6·deg^2·u <= JENSEN_TOL; m(P(z^2)) = m(P(z)) keeps the limit
        x1, x2, x3 = variables(3)
        est = mahler_lawton(1 + x1 + x2 + x3 ** 2)
        assert est.method == "lawton"
        assert est.diagnostics["schedule"] == [list(k) for k in default_lawton_schedule(3)[:3]]
        assert abs(est.value - 7 * 1.2020569031595942 / (2 * math.pi ** 2)) <= 1e-4
        for f in (1 + x1 + x2 + x3, 1 + t1 + t2):
            assert mahler_lawton(f).diagnostics["schedule"] == (
                [list(k) for k in default_lawton_schedule(f.nvars)])

    def test_default_ladder_with_no_rung_left_raises_at_once(self, monkeypatch):
        def no_roots(coeffs):
            raise AssertionError("an Aberth run past the floor")

        monkeypatch.setattr(mahler, "_aberth_roots", no_roots)
        with pytest.raises(NonconvergenceError, match="degree 2000"):
            mahler_lawton(1 + t1 ** 2000 + t2)

    def test_square_takes_twice_the_value(self):
        # every rung of (1 + t1 + t2)^2 has double roots, which certify only
        # on the square-free factor
        schedule = [(1, 2), (1, 5)]
        est, base = mahler_lawton((1 + t1 + t2) ** 2, schedule), mahler_lawton(1 + t1 + t2, schedule)
        assert est.diagnostics["values"] == pytest.approx([2 * v for v in base.diagnostics["values"]], abs=1e-9)


def jensen_reference(f: LaurentPoly, grid: int = 48, panels: int = 12) -> float:
    """m(f) with mpmath's root finder: the integral over theta of
    m(f(e^(2 pi i theta), .)) in t2, on the arcs between the angles where the
    count of roots outside the unit circle changes (found on a grid, refined
    by bisection), each cut into panels of numpy's 10-point Gauss-Legendre.
    Independent of `mahler_boyd`'s resultant, companion matrices and rules."""
    deg = f.max_exponents()[1]

    def roots(theta):
        x = mpmath.expjpi(2 * theta)
        a = [mpmath.mpc(0)] * (deg + 1)
        for (i, j), c in f.terms:
            a[j] += c * x ** i
        return a[-1], mpmath.polyroots(a[::-1], maxsteps=200, extraprec=10)

    def h(theta):
        lead, ys = roots(theta)
        return float(mpmath.log(abs(lead)) + sum(mpmath.log(max(1, abs(r))) for r in ys))

    def outside(theta):
        return sum(abs(r) > 1 for r in roots(theta)[1])

    points = [(k + 0.5) / grid for k in range(grid + 1)]
    counts = [outside(p) for p in points]
    splits = []
    for p, q, cp, cq in zip(points, points[1:], counts, counts[1:]):
        if cp != cq:
            for _ in range(50):
                mid = (p + q) / 2
                p, q = (mid, q) if outside(mid) == cp else (p, mid)
            splits.append(p)
    splits = splits or [0.0]
    nodes, weights = leggauss(10)
    total = 0.0
    for a, b in zip(splits, splits[1:] + [splits[0] + 1]):
        for k in range(panels):
            lo, hi = a + (b - a) * k / panels, a + (b - a) * (k + 1) / panels
            total += (hi - lo) / 2 * sum(
                w * h((lo + hi) / 2 + (hi - lo) / 2 * s) for s, w in zip(nodes, weights))
    return total


def seeded_poly(seed: int, deg: int) -> LaurentPoly:
    """Four random terms of degree exactly `deg` in each variable."""
    rng = random.Random(seed)
    while True:
        f = LaurentPoly(2, {(rng.randint(0, deg), rng.randint(0, deg)): rng.randint(-3, 3)
                            for _ in range(4)})
        if f.max_exponents() == (deg, deg) and f.min_exponents() == (0, 0):
            return f


def swapped(f: LaurentPoly) -> LaurentPoly:
    return LaurentPoly(2, {(b, a): c for (a, b), c in f.terms})


def link_delta(name: str) -> LaurentPoly:
    return delta(alexander_module(parse_presentation((DATA / f"{name}.txt").read_text())))


class TestBoyd:
    @pytest.mark.parametrize("f, value, splits", [
        (1 + t1 + t2, SMYTH, [1 / 3, 2 / 3]),
        (3 + t1 + t2, math.log(3), []),
        # a_1 = 1 - t1 vanishes at t1 = 1, where H = log max(|a_0|, |a_1|) stays analytic
        (1 + t1 + t2 - t1 * t2, TWO_G_OVER_PI, [1 / 4, 3 / 4]),
        # unimodular images of 1 + t1 + t2: two and three roots in y
        (1 + t1 ** 2 + t2 ** 2, SMYTH, None),
        (1 + t1 * t2 ** 2 + t1 ** 2 * t2 ** 3, SMYTH, None),
    ])
    def test_closed_forms(self, f, value, splits):
        est = mahler_boyd(f)
        assert est.method == "boyd"
        assert abs(est.value - value) <= 1e-12
        assert est.error_bound <= 1e-12
        if splits is not None:
            assert est.diagnostics["split_points"] == pytest.approx(splits, abs=1e-12)

    def test_additive(self):
        factors = [1 + t1 + t2, 3 + t1 + t2, 1 + t1 + t2 - t1 * t2, 2 + t1 * t2 ** 2 - t2]
        for i, f in enumerate(factors):
            for g in factors[i:]:
                total = mahler_boyd(f).value + mahler_boyd(g).value
                assert abs(mahler_boyd(f * g).value - total) <= 1e-12, (str(f), str(g))

    def test_swap_and_unit_invariance(self):
        polys = [1 + t1 + t2, 1 + t1 + t2 - t1 * t2, seeded_poly(0, 2), seeded_poly(2, 3)]
        for f in polys:
            value = mahler_boyd(f).value
            assert abs(mahler_boyd(swapped(f)).value - value) <= 1e-12, str(f)
            for u in (-t1 ** 3 * t2 ** -2, t2 ** 5, LaurentPoly.constant(2, -1)):
                est = mahler_boyd(u * f)
                assert est.method == "boyd" and abs(est.value - value) <= 1e-12, (str(f), str(u))

    def test_content_in_one_variable(self):
        # (t1 - 2)(1 + t1 + t2): the content t1 - 2 goes through Jensen's formula
        est = mahler_boyd((t1 - 2) * (1 + t1 + t2))
        assert est.diagnostics["content"] == pytest.approx(math.log(2), abs=1e-12)
        assert abs(est.value - math.log(2) - SMYTH) <= 1e-12
        # free of t2: all of it is content, and H = 0
        est = mahler_boyd(t1 ** 2 - 3 * t1 + 1)
        assert est.method == "boyd" and abs(est.value - LOG_GOLDEN_SQ) <= 1e-9
        # a cyclotomic content measures 0, and its zero at t1 = 1 splits no arc
        est = mahler_boyd((1 - t1) * (1 + t1 + t2))
        assert est.method == "boyd" and abs(est.value - SMYTH) <= 1e-12
        assert est.diagnostics["split_points"] == pytest.approx([1 / 3, 2 / 3], abs=1e-12)

    @pytest.mark.parametrize("seed, deg", [(0, 2), (1, 2), (2, 3)])
    def test_agrees_with_mpmath(self, seed, deg):
        f = seeded_poly(seed, deg)
        est = mahler_boyd(f)
        assert est.method == "boyd" and est.error_bound <= 1e-12
        assert abs(est.value - jensen_reference(f)) <= 1e-9, str(f)

    def test_repeated_factor_is_split_off(self):
        # a triple root in t2 for every t1, whose companion eigenvalues are good
        # to eps^(1/3) only: unsplit, (1 + t1 + t2)^3 came out 4.4e-11 off 3 Smyth
        est = mahler_boyd((1 + t1 + t2) ** 3 * (3 + t1 + t2))
        assert est.method == "boyd" and est.error_bound <= 1e-12
        assert abs(est.value - 3 * SMYTH - math.log(3)) <= 1e-12
        assert len(est.diagnostics["factors"]) == 2

    def test_roots_meeting_on_the_circle(self):
        # at t1 = -1 the cubic in t2 is -(t2 - 2)(t2 + 1)^2: H has a square-root
        # end point there, which plain Gauss-Legendre in theta takes to 2e-10
        # only at 1024 nodes
        f = -3 * t1 ** 3 * t2 - 2 * t1 ** 3 - t2 ** 3
        for g in (f, swapped(f)):
            est = mahler_boyd(g)
            assert est.error_bound <= 1e-12 and est.diagnostics["nodes"] <= 128
            assert abs(est.value - math.log(3)) <= 1e-12
        assert mahler_boyd(f).diagnostics["split_points"] == pytest.approx([1 / 6, 1 / 2, 5 / 6])

    @pytest.mark.parametrize("f", [
        (1 - t1) * (1 - t2),
        link_delta("link_12_5"),
        link_delta("link_20_9"),
    ], ids=["torus-factors", "link_12_5", "link_20_9"])
    def test_reciprocal_input_is_lawton(self, f):
        est = mahler_boyd(f)
        assert est.method == "lawton"
        assert est == mahler_lawton(f)

    def test_gauss_legendre_rule(self):
        for n in (16, 64, 512):
            nodes, weights = mahler._gauss_legendre(n)
            ref_nodes, ref_weights = leggauss(n)
            assert np.abs(nodes - ref_nodes).max() <= 1e-14
            assert np.abs(weights - ref_weights).max() <= 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            mahler_boyd(t - 2)
        with pytest.raises(ValueError):
            mahler_boyd(LaurentPoly.zero(2))


class TestQuadrature:
    def test_constant(self):
        est = mahler_quadrature(LaurentPoly.constant(1, 5), samples=4000, seed=3)
        assert est.value == pytest.approx(math.log(5), abs=1e-12)
        assert est.error_bound <= 1e-12

    def test_rejects_no_samples(self):
        with pytest.raises(ValueError):
            mahler_quadrature(t - 2, samples=0)

    def test_linear_agrees_with_jensen(self):
        est = mahler_quadrature(t - 2, samples=10 ** 6, seed=0)
        assert est.value == pytest.approx(math.log(2), abs=0.01)
        assert est.error_bound < 0.01

    def test_deterministic_given_seed(self):
        a = mahler_quadrature(1 + t1 + t2, samples=20000, seed=9)
        b = mahler_quadrature(1 + t1 + t2, samples=20000, seed=9)
        assert a.value == b.value
        assert a.diagnostics["shard_means"] == b.diagnostics["shard_means"]
        c = mahler_quadrature(1 + t1 + t2, samples=20000, seed=10)
        assert c.value != a.value

    def test_cross_method_agreement(self):
        rng = random.Random(63)
        checked = 0
        while checked < 10:
            f = random_nonzero_laurent(rng, 1, max_terms=3)
            j = mahler_univariate(f)
            q = mahler_quadrature(f, samples=200_000, seed=checked)
            tol = j.error_bound + 4 * q.error_bound + 5e-3
            assert abs(j.value - q.value) <= tol, (str(f), j.value, q.value)
            checked += 1

    @pytest.mark.parametrize("samples", [20, 31, 33])
    def test_evaluates_as_many_points_as_it_reports(self, monkeypatch, samples):
        # 16 shards: the first samples % 16 of them draw one point more
        counts = []
        real = mahler._torus_eval_log

        def counting(f, thetas):
            counts.append(len(thetas))
            return real(f, thetas)

        monkeypatch.setattr(mahler, "_torus_eval_log", counting)
        est = mahler_quadrature(3 + t1 + t2, samples=samples, seed=1)
        extra = samples % 16
        assert counts == [samples // 16 + 1] * extra + [samples // 16] * (16 - extra)
        assert sum(counts) == est.diagnostics["samples"] == samples

    def test_rejection_accounting(self):
        # f vanishing on a positive-measure-free set still integrates; the
        # cyclotomic zero set has measure zero so rejections stay rare
        est = mahler_quadrature(t - 1, samples=50000, seed=4)
        assert est.diagnostics["rejected"] <= 5
        assert est.value == pytest.approx(0.0, abs=0.05)


def test_estimate_validation():
    with pytest.raises(ValueError):
        MahlerEstimate(1.0, "jensen", -0.5)
