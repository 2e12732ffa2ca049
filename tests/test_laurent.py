import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_laurent, random_nonzero_laurent
from torgrowth.laurent import (
    LaurentPoly,
    div_exact,
    gcd,
    gcd_list,
    normalize_unit,
    parse_poly,
    poly_from_json,
    poly_to_json,
    variables,
)

t, = variables(1)
t1, t2 = variables(2)


class TestRingOps:
    def test_additive_inverse(self):
        assert (t1 - 1) + (1 - t1) == LaurentPoly.zero(2)

    def test_difference_of_squares(self):
        assert (t1 - 1) * (t1 + 1) == t1 ** 2 - 1

    def test_unit_multiplication(self):
        assert (1 - t1 ** -1) * t1 == t1 - 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            t + t1

    def test_zero_coefficients_dropped(self):
        p = LaurentPoly(1, {(0,): 0, (1,): 2})
        assert p.terms == (((1,), 2),)

    def test_repeated_exponents_cancel(self):
        p = LaurentPoly(1, [((1,), 2), ((1,), -2), ((0,), 1)])
        assert p == 1 and p.terms == (((0,), 1),)

    def test_unit_inverse_power(self):
        u = LaurentPoly.monomial((2, -3), -1)
        assert u * u ** -1 == LaurentPoly.one(2)
        with pytest.raises(ValueError):
            (t + 1) ** -1


class TestNormalizeUnit:
    def test_shift_and_sign(self):
        assert normalize_unit(-(t ** -1) + 1) == t - 1

    def test_monomial_is_unit(self):
        assert normalize_unit(t1 ** 2 * t2 ** -3) == LaurentPoly.one(2)

    def test_sign_flip(self):
        assert normalize_unit(-3 * t ** 2 + t) == 3 * t - 1

    def test_zero(self):
        assert normalize_unit(LaurentPoly.zero(1)).is_zero()

    def test_idempotent(self):
        rng = random.Random(0)
        for _ in range(300):
            p = random_laurent(rng, rng.choice([1, 2, 3]))
            once = normalize_unit(p)
            assert normalize_unit(once) == once

    def test_invariant_under_units(self):
        rng = random.Random(1)
        for _ in range(200):
            nv = rng.choice([1, 2])
            p = random_laurent(rng, nv)
            shift = tuple(rng.randint(-3, 3) for _ in range(nv))
            sign = rng.choice([1, -1])
            q = LaurentPoly.monomial(shift, sign) * p
            assert normalize_unit(q) == normalize_unit(p)

    def test_output_is_canonical(self):
        rng = random.Random(2)
        for _ in range(300):
            p = normalize_unit(random_nonzero_laurent(rng, rng.choice([1, 2, 3])))
            assert p.min_exponents() == (0,) * p.nvars
            assert p.coeff(max(e for e, _ in p.terms)) > 0


class TestGcd:
    def test_linear_factor(self):
        assert gcd(t1 ** 2 - 1, t1 ** 2 - 2 * t1 + 1) == t1 - 1

    def test_gcd_with_zero(self):
        f = -2 * t + 4
        assert gcd(f, LaurentPoly.zero(1)) == normalize_unit(f)
        assert gcd(LaurentPoly.zero(1), LaurentPoly.zero(1)).is_zero()

    def test_coprime_content(self):
        assert gcd(LaurentPoly.constant(2, 2), t1 - 1).is_one()

    def test_integer_content_kept(self):
        assert gcd(2 * t, LaurentPoly.constant(1, 4)) == LaurentPoly.constant(1, 2)

    def test_divides_both(self):
        rng = random.Random(2)
        for _ in range(100):
            nv = rng.choice([1, 2])
            f = random_laurent(rng, nv)
            g = random_laurent(rng, nv)
            h = gcd(f, g)
            if h.is_zero():
                assert f.is_zero() and g.is_zero()
                continue
            assert div_exact(f, h) is not None and div_exact(g, h) is not None

    def test_multiplicative(self):
        rng = random.Random(3)
        for _ in range(150):
            nv = rng.choice([1, 2])
            f, g = random_laurent(rng, nv), random_laurent(rng, nv)
            h = random_nonzero_laurent(rng, nv)
            lhs = gcd(f * h, g * h)
            rhs = normalize_unit(gcd(f, g) * h)
            assert lhs == rhs

    def test_common_divisor_divides_gcd(self):
        rng = random.Random(4)
        for _ in range(100):
            nv = rng.choice([1, 2])
            d = random_nonzero_laurent(rng, nv)
            a, b = random_laurent(rng, nv), random_laurent(rng, nv)
            g = gcd(a * d, b * d)
            if not g.is_zero():
                assert div_exact(g, d) is not None

    def test_three_variables(self):
        rng = random.Random(9)
        for _ in range(30):
            f, g = random_laurent(rng, 3), random_laurent(rng, 3)
            h = random_nonzero_laurent(rng, 3)
            d = gcd(f, g)
            assert gcd(g, f) == d
            if not d.is_zero():
                assert div_exact(f, d) is not None and div_exact(g, d) is not None
            assert gcd(f * h, g * h) == normalize_unit(d * h)

    def test_three_variable_known_answers(self):
        s1, s2, s3 = variables(3)
        common = 1 + s1 + s2 + s3
        assert gcd(common * (s1 - s2), common * (s3 + 2)) == common
        assert gcd(2 * s3 * (s1 + s2), 4 * (s1 + s2)) == 2 * (s1 + s2)

    def test_gcd_list_short_circuit(self):
        polys = [t - 1, t + 1, LaurentPoly.constant(1, 7)]
        assert gcd_list(polys, 1).is_one()
        assert gcd_list([], 2).is_zero()


class TestDivision:
    def test_exact(self):
        assert div_exact(t ** 2 - 1, t - 1) == t + 1

    def test_fails(self):
        assert div_exact(t ** 2 + 1, t - 1) is None
        assert div_exact(LaurentPoly.one(1), t - 1) is None
        assert div_exact(LaurentPoly.constant(1, 3), LaurentPoly.constant(1, 2)) is None

    def test_laurent_units(self):
        q = div_exact(t - 1, LaurentPoly.monomial((1,), 1))
        assert q == 1 - t ** -1

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            div_exact(t, LaurentPoly.zero(1))

    def test_roundtrip(self):
        rng = random.Random(5)
        for _ in range(150):
            nv = rng.choice([1, 2])
            f = random_nonzero_laurent(rng, nv)
            g = random_nonzero_laurent(rng, nv)
            q = div_exact(f * g, g)
            assert q == f

    def test_floordiv_is_exact_division(self):
        rng = random.Random(6)
        inexact = 0
        for _ in range(150):
            nv = rng.choice([1, 2])
            f = random_nonzero_laurent(rng, nv)
            g = random_nonzero_laurent(rng, nv)
            assert (f * g) // g == div_exact(f * g, g) == f
            if div_exact(f + 1, g) is None:
                inexact += 1
                with pytest.raises(ArithmeticError):
                    (f + 1) // g
            else:
                assert (f + 1) // g == div_exact(f + 1, g)
        assert inexact > 100
        assert (6 * t - 4) // 2 == 3 * t - 2
        with pytest.raises(ArithmeticError):
            (2 * t + 1) // 2


class TestTau:
    def test_direct_substitution(self):
        assert (t1 * t2 - 1).tau((2, 3)) == t ** 5 - 1
        assert (1 + t1 + t2).tau((1, 20)) == 1 + t + t ** 20

    def test_unital(self):
        assert LaurentPoly.one(2).tau((4, 7)).is_one()

    def test_ring_homomorphism(self):
        rng = random.Random(6)
        for _ in range(200):
            nv = rng.choice([2, 3])
            k = tuple(rng.randint(-4, 4) for _ in range(nv))
            f, g = random_laurent(rng, nv), random_laurent(rng, nv)
            assert (f + g).tau(k) == f.tau(k) + g.tau(k)
            assert (f * g).tau(k) == f.tau(k) * g.tau(k)

    def test_coefficient_multiset_preserved_when_separated(self):
        # once k separates all exponent differences, coefficients transfer
        rng = random.Random(7)
        for _ in range(100):
            f = random_laurent(rng, 2, max_terms=4)
            k = (1, 101)  # spread beyond any coordinate difference here
            img = f.tau(k)
            assert sorted(c for _, c in img.terms) == sorted(c for _, c in f.terms)


class TestEvaluateAndNorm:
    def test_one_norm(self):
        assert (t ** 2 - 3 * t + 1).one_norm() == 5
        assert LaurentPoly.zero(1).one_norm() == 0
        assert (-2 * t1 + t2).one_norm() == 3


@st.composite
def laurent_polys(draw, nvars=1):
    n = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n):
        e = tuple(draw(st.integers(min_value=-3, max_value=3)) for _ in range(nvars))
        terms[e] = draw(st.integers(min_value=-5, max_value=5))
    return LaurentPoly(nvars, terms)


@given(laurent_polys(), laurent_polys(), laurent_polys())
@settings(max_examples=100, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)


@given(laurent_polys(nvars=2))
@settings(max_examples=100, deadline=None)
def test_evaluate_matches_tau_on_circle(f):
    # evaluating tau_k at z equals evaluating f at (z^k1, z^k2)
    k = (2, 5)
    z = complex(0.6, 0.8)
    lhs = sum(c * z ** e for (e,), c in f.tau(k).terms)
    rhs = sum(c * (z ** 2) ** a * (z ** 5) ** b for (a, b), c in f.terms)
    assert abs(lhs - rhs) <= 1e-9 * (1 + f.one_norm())


class TestParseAndJson:
    def test_parse(self):
        assert parse_poly("t^2 - t + 1") == t ** 2 - t + 1
        assert parse_poly("t1*t2 - 1", 2) == t1 * t2 - 1
        assert parse_poly("-2*t1^-1 + t2", 2) == -2 * t1 ** -1 + t2
        assert parse_poly("5") == LaurentPoly.constant(1, 5)
        assert parse_poly("+t") == t
        assert parse_poly("- t^-1 - 1") == -t ** -1 - 1
        assert parse_poly("2t") == parse_poly("2 t") == 2 * t

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_poly("t1 + spam", 2)
        with pytest.raises(ValueError):
            parse_poly("")

    @pytest.mark.parametrize("text", ["t1+", "t + + 1", "t - -1", "+", "-",
                                      "3*-t", "t**2", "3*", "*t", "*"])
    def test_parse_rejects_dangling_sign(self, text):
        message = "empty factor" if "*" in text else "sign without a term"
        with pytest.raises(ValueError, match=message):
            parse_poly(text)

    def test_json_roundtrip(self):
        rng = random.Random(8)
        for _ in range(100):
            nv = rng.choice([1, 2, 3])
            f = random_laurent(rng, nv)
            blob = json.dumps(poly_to_json(f))
            assert poly_from_json(json.loads(blob), nv) == f

    def test_json_repeated_exponents_cancel(self):
        assert poly_from_json([[[1], "2"], [[1], "-2"], [[0], "1"]]) == 1

    @pytest.mark.parametrize("data", [[[[True], True]], [[[1], True]], [[[True], "1"]],
                                      [[[1], 1.0]], [[[1.0], "1"]]])
    def test_json_rejects_booleans_and_floats(self, data):
        # true is not read as the integer 1, so [[[true], true]] is not t
        with pytest.raises(ValueError, match="polynomial term"):
            poly_from_json(data)

    def test_pickle_roundtrip(self):
        rng = random.Random(10)
        for _ in range(50):
            f = random_laurent(rng, rng.choice([1, 2, 3]))
            g = pickle.loads(pickle.dumps(f))
            assert g == f and g.nvars == f.nvars and hash(g) == hash(f)

    def test_json_deterministic(self):
        f = t1 * t2 - 3 * t1 + 1
        assert poly_to_json(f) == poly_to_json(LaurentPoly(2, dict(reversed(f.terms))))

    def test_str_roundtrip(self):
        rng = random.Random(9)
        for _ in range(100):
            f = random_nonzero_laurent(rng, rng.choice([1, 2]))
            assert parse_poly(str(f), f.nvars) == f
