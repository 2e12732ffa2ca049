"""Exact arithmetic for multivariate Laurent polynomials over the integers.

The ring is Z[t1^±1, ..., tn^±1].  Elements are sparse maps from exponent
vectors (integer n-tuples) to nonzero arbitrary-precision integer
coefficients; the zero polynomial is the empty map.  Values are immutable
after construction, so everything here is safe to share across threads.

Units of the ring are the signed monomials ±t^k.  `normalize_unit` picks a
canonical representative of the orbit {±t^k · f}: shift every variable's
minimum exponent to 0 and flip the global sign so the lexicographically
greatest exponent vector carries a positive coefficient.  GCDs are computed
with a content/primitive-part recursion over subresultant remainder
sequences, exact over Z throughout.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence


class LaurentPoly:
    """A sparse integer Laurent polynomial in ``nvars`` variables."""

    __slots__ = ("nvars", "_terms", "_key")

    def __init__(self, nvars: int, terms: Mapping[tuple, int] | Iterable = ()):
        if nvars < 1:
            raise ValueError("nvars must be a positive integer")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[tuple[int, ...], int] = {}
        for exp, coeff in items:
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars:
                raise ValueError(
                    f"exponent vector {exp} has length {len(exp)}, expected {nvars}"
                )
            coeff = int(coeff)
            if coeff:
                c = clean.get(exp, 0) + coeff
                if c:
                    clean[exp] = c
                elif exp in clean:
                    del clean[exp]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        return (LaurentPoly, (self.nvars, self._terms))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c: int) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: int(c)})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls.constant(nvars, 1)

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff: int = 1) -> "LaurentPoly":
        return cls(len(exps), {tuple(exps): coeff})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "LaurentPoly":
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, {tuple(exp): 1})

    # -- basic structure ---------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Terms as a tuple sorted by exponent vector (deterministic order)."""
        key = self._key
        if key is None:
            key = tuple(sorted(self._terms.items()))
            object.__setattr__(self, "_key", key)
        return key

    def coeff(self, exp: Sequence[int]) -> int:
        return self._terms.get(tuple(exp), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {(0,) * self.nvars: 1}

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def is_unit(self) -> bool:
        """True for ±t^k, the units of the Laurent ring."""
        return len(self._terms) == 1 and abs(next(iter(self._terms.values()))) == 1

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.constant(self.nvars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.nvars, self.terms))

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly.constant(self.nvars, other)
        if not isinstance(other, LaurentPoly):
            raise TypeError(f"cannot combine LaurentPoly with {type(other).__name__}")
        if other.nvars != self.nvars:
            raise ValueError(f"dimension mismatch: {self.nvars} vs {other.nvars} variables")
        return other

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        out = dict(self._terms)
        for exp, c in other._terms.items():
            s = out.get(exp, 0) + c
            if s:
                out[exp] = s
            elif exp in out:
                del out[exp]
        return LaurentPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(exp, 0) + c1 * c2
                if s:
                    out[exp] = s
                elif exp in out:
                    del out[exp]
        return LaurentPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if not self.is_unit():
                raise ValueError("negative powers only defined for units")
            exp, c = next(iter(self._terms.items()))
            return LaurentPoly(self.nvars, {tuple(n * e for e in exp): c if n % 2 else 1})
        result = LaurentPoly.one(self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def shift(self, exps: Sequence[int]) -> "LaurentPoly":
        """Multiply by the monomial t^exps."""
        exps = tuple(exps)
        return LaurentPoly(
            self.nvars,
            {tuple(a + b for a, b in zip(e, exps)): c for e, c in self._terms.items()},
        )

    # -- queries -----------------------------------------------------------

    def min_exponents(self) -> tuple[int, ...]:
        if not self._terms:
            return (0,) * self.nvars
        return tuple(min(e[i] for e in self._terms) for i in range(self.nvars))

    def max_exponents(self) -> tuple[int, ...]:
        if not self._terms:
            return (0,) * self.nvars
        return tuple(max(e[i] for e in self._terms) for i in range(self.nvars))

    def one_norm(self) -> int:
        """Sum of the absolute values of the coefficients."""
        return sum(abs(c) for c in self._terms.values())

    def coefficients(self) -> tuple[int, ...]:
        """Coefficients in deterministic (sorted-exponent) order."""
        return tuple(c for _, c in self.terms)

    def evaluate(self, z: Sequence[complex]) -> complex:
        """Evaluate at a point with all nonzero coordinates.

        Floating-point evaluation; the rounding error is on the order of
        ``one_norm() * max|z_i^e|`` times machine epsilon.
        """
        if len(z) != self.nvars:
            raise ValueError("evaluation point has wrong length")
        zs = [complex(v) for v in z]
        if any(v == 0 for v in zs):
            raise ValueError("evaluation requires nonzero coordinates")
        total = 0j
        for exp, c in self._terms.items():
            term = complex(c)
            for v, e in zip(zs, exp):
                if e:
                    term *= v ** e
            total += term
        return total

    def tau(self, k: Sequence[int]) -> "LaurentPoly":
        """Specialize along k: the ring map sending t^m to t^(m·k).

        The result is univariate.  This is a ring homomorphism for every
        integer vector k.
        """
        if len(k) != self.nvars:
            raise ValueError("k has wrong length")
        k = tuple(int(v) for v in k)
        out: dict[tuple[int], int] = {}
        for exp, c in self._terms.items():
            e = (sum(a * b for a, b in zip(exp, k)),)
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return LaurentPoly(1, out)

    # -- display -----------------------------------------------------------

    def _varname(self, i: int) -> str:
        return "t" if self.nvars == 1 else f"t{i + 1}"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exp, c in sorted(self._terms.items(), reverse=True):
            factors = []
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(self._varname(i))
                elif e:
                    factors.append(f"{self._varname(i)}^{e}")
            body = "*".join(factors)
            if not body:
                text = str(abs(c))
            elif abs(c) == 1:
                text = body
            else:
                text = f"{abs(c)}*{body}"
            parts.append(("- " if c < 0 else "+ ") + text)
        s = " ".join(parts)
        return "-" + s[2:] if s.startswith("- ") else s[2:]

    def __repr__(self) -> str:
        return f"LaurentPoly({self.nvars}, {self})"


def variables(nvars: int) -> tuple[LaurentPoly, ...]:
    """The generator monomials t1, ..., tn."""
    return tuple(LaurentPoly.variable(i, nvars) for i in range(nvars))


@dataclass(frozen=True)
class UnitNormalForm:
    """Canonical representative of {±t^k · f}.

    Every variable's minimum exponent is 0 and the coefficient of the
    lexicographically greatest exponent vector is positive (zero maps to
    zero).
    """

    poly: LaurentPoly

    def __post_init__(self):
        p = self.poly
        if p.is_zero():
            return
        if any(m != 0 for m in p.min_exponents()):
            raise ValueError("not unit-normalized: minimum exponents nonzero")
        if p.coeff(max(e for e, _ in p.terms)) <= 0:
            raise ValueError("not unit-normalized: leading coefficient not positive")

    def is_one(self) -> bool:
        return self.poly.is_one()

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __str__(self) -> str:
        return str(self.poly)


def normalize_unit(f: LaurentPoly) -> UnitNormalForm:
    """Canonical form of f up to multiplication by units ±t^k (idempotent)."""
    if f.is_zero():
        return UnitNormalForm(f)
    shifted = f.shift(tuple(-m for m in f.min_exponents()))
    lead = max(e for e, _ in shifted.terms)
    if shifted.coeff(lead) < 0:
        shifted = -shifted
    return UnitNormalForm(shifted)


def associates(f: LaurentPoly, g: LaurentPoly) -> bool:
    """True when f and g agree up to a unit ±t^k."""
    return normalize_unit(f).poly == normalize_unit(g).poly


# ---------------------------------------------------------------------------
# Exact division
# ---------------------------------------------------------------------------


def div_exact(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly | None:
    """Return q with f = q*g, or None when g does not divide f.

    Division in the Laurent ring: monomial unit factors never obstruct, so
    both arguments are shifted to honest polynomials first and quotient terms
    are produced by cancelling lexicographically greatest terms.
    """
    if g.nvars != f.nvars:
        raise ValueError("dimension mismatch")
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return LaurentPoly.zero(f.nvars)
    fmin, gmin = f.min_exponents(), g.min_exponents()
    fp = dict(f.shift(tuple(-m for m in fmin))._terms)
    gp = g.shift(tuple(-m for m in gmin))._terms
    glead = max(gp)
    gc = gp[glead]
    quot: dict[tuple[int, ...], int] = {}
    while fp:
        flead = max(fp)
        qexp = tuple(a - b for a, b in zip(flead, glead))
        if any(e < 0 for e in qexp):
            return None
        qc, rem = divmod(fp[flead], gc)
        if rem:
            return None
        quot[qexp] = qc
        for e, c in gp.items():
            t = tuple(a + b for a, b in zip(qexp, e))
            s = fp.get(t, 0) - qc * c
            if s:
                fp[t] = s
            elif t in fp:
                del fp[t]
    shift = tuple(a - b for a, b in zip(fmin, gmin))
    return LaurentPoly(f.nvars, {tuple(a + b for a, b in zip(e, shift)): c for e, c in quot.items()})


def divides(g: LaurentPoly, f: LaurentPoly) -> bool:
    return div_exact(f, g) is not None


# ---------------------------------------------------------------------------
# GCD via content / primitive-part recursion with subresultant sequences
# ---------------------------------------------------------------------------
#
# At level i the main variable is t_i and each coefficient of a power of t_i
# is a LaurentPoly free of t_0..t_i; every division is exact.


def _deg(f: LaurentPoly, i: int) -> int:
    return max(e[i] for e in f._terms)


def _coeff_in(f: LaurentPoly, i: int, d: int) -> LaurentPoly:
    """The coefficient of t_i^d."""
    return LaurentPoly(
        f.nvars, {e[:i] + (0,) + e[i + 1:]: c for e, c in f._terms.items() if e[i] == d}
    )


def _div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    q = div_exact(f, g)
    assert q is not None, "inexact division in a subresultant sequence"
    return q


def _sign_norm(f: LaurentPoly) -> LaurentPoly:
    """Flip f so its lexicographically greatest term is positive."""
    return -f if f and f._terms[max(f._terms)] < 0 else f


def _content(f: LaurentPoly, i: int) -> LaurentPoly:
    """GCD of the coefficients in t_i, sign-normalized."""
    c = LaurentPoly.zero(f.nvars)
    for d in sorted({e[i] for e in f._terms}):
        c = _poly_gcd(c, _coeff_in(f, i, d), i + 1)
        if c.is_one():
            break
    return c


def _prem(f: LaurentPoly, g: LaurentPoly, i: int) -> LaurentPoly:
    """Pseudo-remainder of f by g in t_i (deg f >= deg g)."""
    dg = _deg(g, i)
    lcg = _coeff_in(g, i, dg)
    n = _deg(f, i) - dg + 1
    r = f
    while r and (dr := _deg(r, i)) >= dg:
        step = [0] * f.nvars
        step[i] = dr - dg
        r = r * lcg - _coeff_in(r, i, dr) * g.shift(step)
        n -= 1
    return r * lcg ** n if n > 0 else r


def _poly_gcd(f: LaurentPoly, g: LaurentPoly, i: int) -> LaurentPoly:
    """Sign-normalized GCD of polynomials free of t_0..t_(i-1)."""
    n = f.nvars
    if i == n:
        zero = (0,) * n
        return LaurentPoly.constant(n, math.gcd(f.coeff(zero), g.coeff(zero)))
    if not f or not g:
        return _sign_norm(f or g)
    cf, cg = _content(f, i), _content(g, i)
    c = _poly_gcd(cf, cg, i + 1)
    pf, pg = _div(f, cf), _div(g, cg)
    if _deg(pf, i) < _deg(pg, i):
        pf, pg = pg, pf
    one = LaurentPoly.one(n)
    result = one
    if _deg(pg, i) > 0:
        # subresultant remainder sequence on the primitive parts
        g_ = h_ = one
        while True:
            delta = _deg(pf, i) - _deg(pg, i)
            r = _prem(pf, pg, i)
            if not r:
                result = _div(pg, _content(pg, i))
                break
            if _deg(r, i) == 0:
                break
            pf, pg = pg, _div(r, g_ * h_ ** delta)
            g_ = _coeff_in(pf, i, _deg(pf, i))
            if delta == 1:
                h_ = g_
            elif delta > 1:
                h_ = _div(g_ ** delta, h_ ** (delta - 1))
    return _sign_norm(result * c)


def gcd(f: LaurentPoly, g: LaurentPoly) -> UnitNormalForm:
    """Greatest common divisor in Z[t1^±1,...,tn^±1], unit-normalized.

    gcd(f, 0) = normalize_unit(f); integer content is included, so
    gcd(2t, 4) = 2 while gcd(2, t-1) = 1.
    """
    if f.nvars != g.nvars:
        raise ValueError("dimension mismatch")
    if f.is_zero():
        return normalize_unit(g)
    if g.is_zero():
        return normalize_unit(f)
    return normalize_unit(_poly_gcd(normalize_unit(f).poly, normalize_unit(g).poly, 0))


def gcd_list(polys: Iterable[LaurentPoly], nvars: int) -> UnitNormalForm:
    """GCD of a (possibly empty) family; the empty family gives 0."""
    acc = LaurentPoly.zero(nvars)
    for p in polys:
        acc = gcd(acc, p).poly
        if acc.is_one():
            break
    return normalize_unit(acc)


# ---------------------------------------------------------------------------
# Parsing and JSON serialization
# ---------------------------------------------------------------------------

_FACTOR_RE = re.compile(r"(\d+)|t(\d*)(?:\^(-?\d+))?")


def parse_poly(text: str, nvars: int | None = None) -> LaurentPoly:
    """Parse expressions like ``"t1^2*t2 - 3*t2^-1 + 4"`` (or ``t`` when n=1).

    Without an explicit ``nvars`` the variable count is inferred from the
    largest index that appears (bare ``t`` counts as ``t1``).
    """
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial string")
    # tokenize into signed terms, honoring '^-' exponents; every sign but a
    # leading one must follow a term, and every sign must be followed by one
    pieces: list[tuple[int, str]] = []
    sign, cur = 1, ""
    for i, ch in enumerate(text):
        if ch in "+-" and (i == 0 or text[i - 1] != "^"):
            if cur.strip():
                pieces.append((sign, cur))
            elif i:
                raise ValueError(f"sign without a term in {text!r}")
            sign, cur = (1 if ch == "+" else -1), ""
        else:
            cur += ch
    if not cur.strip():
        raise ValueError(f"sign without a term in {text!r}")
    pieces.append((sign, cur))

    parsed: list[tuple[int, dict[int, int]]] = []
    maxvar = 0
    for sign, chunk in pieces:
        coeff = sign
        exps: dict[int, int] = {}
        factors = chunk.split("*")
        if not all(f.strip() for f in factors):
            raise ValueError(f"empty factor around '*' in {text!r}")
        body = " ".join(factors).strip()
        pos = 0
        for m in _FACTOR_RE.finditer(body):
            if m.start() < pos:
                continue
            pos = m.end()
            if m.group(1) is not None:
                coeff *= int(m.group(1))
            else:
                idx = int(m.group(2)) if m.group(2) else 1
                e = int(m.group(3)) if m.group(3) else 1
                exps[idx] = exps.get(idx, 0) + e
                maxvar = max(maxvar, idx)
        leftover = re.sub(r"[\s]", "", _FACTOR_RE.sub("", body))
        if leftover:
            raise ValueError(f"cannot parse {leftover!r} in polynomial {text!r}")
        parsed.append((coeff, exps))
    n = nvars if nvars is not None else max(maxvar, 1)
    if maxvar > n:
        raise ValueError(f"variable t{maxvar} out of range for nvars={n}")
    terms: dict[tuple[int, ...], int] = {}
    for coeff, exps in parsed:
        key = tuple(exps.get(i + 1, 0) for i in range(n))
        terms[key] = terms.get(key, 0) + coeff
    return LaurentPoly(n, terms)


def poly_to_json(f: LaurentPoly) -> list:
    """Shared JSON form: sorted list of [exponent-vector, coefficient-string]."""
    return [[list(e), str(c)] for e, c in f.terms]


def poly_from_json(data: Sequence, nvars: int) -> LaurentPoly:
    terms = {}
    for exp, coeff in data:
        terms[tuple(int(e) for e in exp)] = int(coeff)
    return LaurentPoly(nvars, terms)
