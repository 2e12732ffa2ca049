"""Numerical Mahler measure on the additive (log) scale.

Univariate values come from Jensen's formula over certified roots of the
polynomial, split into Yun's square-free factors when a repeated root
keeps them from certifying.  The roots come from vectorized Aberth sweeps
in numpy that move every root not yet converged at once, started from the
Newton polygon of the coefficients (one circle per hull edge, Bini 1996).
A sweep evaluates the polynomial in numpy calls per nonzero term, not per
degree, so the sparse specializations of a Lawton schedule stay cheap at
high degree.
Two-variable values come from Boyd's one-dimensional integral of the
Jensen value in one variable over the circle of the other, split at the
unit-circle roots of an exact integer resultant and taken by Gauss-Legendre
rules that double until they agree.  Values in any number of variables
come either from the one-variable specializations t^m -> t^(m·k) along a
schedule of directions k with growing orthogonal defect (Lawton's limit),
or from seeded median-of-means Monte Carlo integration of log|f| over the
unit torus.

All estimates carry a method tag and an explicit error bound; the additive
measure of a nonzero integer polynomial is nonnegative, and is 0 exactly for
generalized cyclotomic polynomials.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .intlinalg import eliminate
from .lattices import lawton_norm
from .laurent import LaurentPoly, gcd, gcd_list, normalize_unit

JENSEN_TOL = 1e-9  # the error bound a Jensen value must certify
ABERTH_BLOCK = 4096  # entries of the z_i - z_j array the Aberth sum holds at once
ABERTH_SWEEPS = 10_000  # cap on the sweeps of the one Aberth run per certification
QUADRATURE_SHARDS = 16  # median-of-means groups of the Monte Carlo estimate
BOYD_TOL = 1e-12  # the gap between successive rules that ends Boyd's doubling
BOYD_NODES = (16, 512)  # the first and the largest n compared with 2n


class NonconvergenceError(RuntimeError):
    """Root refinement failed to reach the requested certification."""


@dataclass(frozen=True)
class MahlerEstimate:
    """An additive Mahler-measure value with provenance and error bound."""

    value: float
    method: str
    error_bound: float
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.error_bound < 0:
            raise ValueError("error bound must be nonnegative")

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "error_bound": self.error_bound if math.isfinite(self.error_bound) else None,
            "diagnostics": self.diagnostics,
        }


def _poly_coeffs(f: LaurentPoly) -> list[int]:
    """Dense coefficients (low to high) of the unit-normalized polynomial."""
    p = normalize_unit(f)
    deg = p.max_exponents()[0]
    out = [0] * (deg + 1)
    for (e,), c in p.terms:
        out[e] = c
    return out


def _float_coeffs(coeffs: Sequence[int]) -> np.ndarray:
    """The coefficients as complex floats; ValueError beyond the float range."""
    try:
        return np.array([float(c) for c in coeffs], dtype=np.complex128)
    except OverflowError:
        bits = max(abs(c).bit_length() for c in coeffs)
        raise ValueError(
            f"a coefficient has {bits} bits (about 10^{int(bits * math.log10(2))}), "
            "beyond the float range of the root finder"
        ) from None


def _start_points(coeffs: Sequence[int]) -> list[complex]:
    """Aberth start points from the Newton polygon (Bini, Numer. Algorithms
    13, 1996): each edge of the upper convex hull of (i, log|a_i|), of
    length m and slope s, puts m points on the circle of radius exp(-s),
    where m roots of that modulus lie.  Coefficients are low->high, ends
    nonzero.
    """
    deg = len(coeffs) - 1
    hull: list[tuple[int, float]] = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        y = math.log(abs(c))
        while len(hull) >= 2:
            (i0, y0), (i1, y1) = hull[-2], hull[-1]
            if (i1 - i0) * (y - y0) < (y1 - y0) * (i - i0):
                break
            hull.pop()
        hull.append((i, y))
    points = []
    for (i0, y0), (i1, y1) in zip(hull, hull[1:]):
        m = i1 - i0
        r = math.exp((y0 - y1) / m)
        points.extend(
            cmath.rect(r, 2 * math.pi * (k / m + i0 / deg) + 0.7) for k in range(m)
        )
    return points


def _power(z: np.ndarray, k: int) -> np.ndarray:
    """z**k for an integer k >= 1, by repeated squaring above k = 99, where
    numpy's complex power leaves its own multiplication path (on 256
    points, on a 2-vCPU x86-64 machine, numpy took 7 µs for z**99, 81 µs
    for z**239, and squaring 12 µs for z**239)."""
    if k <= 99:
        return z ** k
    out = None
    while True:
        if k & 1:
            out = z if out is None else out * z
        k >>= 1
        if not k:
            return out
        z = z * z


def _aberth_roots(coeffs: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """All roots of a degree >= 1 polynomial (coeffs low->high, ends nonzero)
    and inclusion disks of radius d*(|p(z)| + e)/|p'(z)|, from one run of
    at most ABERTH_SWEEPS sweeps (no retry).  e is a running bound on the
    rounding error of p(z) (Higham, Accuracy and Stability, §5.1), so a
    root placed eps^(1/k) off a k-fold root, where p(z) may round to 0,
    still gets a disk that reaches the root.  It puts a floor of about
    6·deg^2·u under Jensen's bound for roots near the unit circle.

    A sweep is Ehrlich-Aberth in numpy over the live roots at once.  A root
    whose step falls below 1e-14·max(1, r), r the largest start circle, is
    held: later sweeps evaluate p, p' and the Aberth sum only for live
    roots, while held roots still enter every live root's sum.  The run
    ends when no root is live or a step is not finite.  One Horner loop
    over the nonzero coefficients gives p and p' (a gap of g > 1 between
    exponents multiplies by z^g).  The Aberth sum takes each pair of live
    roots once, by 1/(z_j - z_i) = -1/(z_i - z_j): a row block of at most
    ABERTH_BLOCK differences, against the live roots from its own first
    row on and every held root, adds its row sums to its own roots and
    subtracts its column sums from the live roots after it.  Where p or p'
    overflows at |z| > 1, only their ratio is kept, from the reversed
    polynomial q(w) = w^deg·p(1/w) at w = 1/z:
    p/p' = z·q(w) / (deg·q(w) - w·q'(w)).  A root with p(z) = 0 is held;
    one with p'(z) = 0 is perturbed; two roots that meet exactly make a
    step that is not finite.
    """
    deg = len(coeffs) - 1
    c = _float_coeffs(coeffs)
    z = np.array(_start_points(coeffs))
    tol = 1e-14 * max(1.0, float(np.abs(z).max()))

    def gaps(c):
        # the leading coefficient, then (drop in exponent, coefficient) down
        # the nonzero coefficients
        e = np.flatnonzero(c)[::-1]
        return c[e[0]], list(zip((e[:-1] - e[1:]).tolist(), c[e[1:]]))

    def horner(terms, z, rounding=False):
        # p, p' and, with rounding, Higham's running bound (Accuracy and
        # Stability, §5.1) on the rounding error of p in units of u: a complex
        # product is within sqrt(2)·gamma_2 < 3u relative (Lemma 3.5), so
        # z^g, by squaring or not, is within 3g·u, and every sum and every
        # coefficient's conversion to a float adds u of its modulus
        lead, steps = terms
        pv = np.full(len(z), lead)
        dv = np.zeros_like(pv)
        mu = np.full(len(z), abs(lead)) if rounding else None
        for g, a in steps:
            if g == 1:
                dv = dv * z + pv
                new = pv * z + a
            else:  # p·z^g + a, and its derivative p'·z^g + g·p·z^(g-1)
                zg = _power(z, g - 1)
                dv = (dv * z + g * pv) * zg
                new = pv * z * zg + a
            if rounding:
                grow = np.abs(z if g == 1 else z * zg)
                mu = grow * (mu + 3 * g * np.abs(pv)) + np.abs(new) + abs(a)
            pv = new
        return pv, dv, mu

    forward, backward = gaps(c), gaps(c[::-1])

    def evaluate(z, rounding=False):
        # p, p' and, with rounding, the bound on the rounding error of p
        pv, dv, mu = horner(forward, z, rounding)
        ok = np.isfinite(pv) & np.isfinite(dv)
        if rounding:
            ok &= np.isfinite(mu)
        big = ~ok & (np.abs(z) > 1)
        if big.any():
            w = 1 / z[big]
            qv, qd, mq = horner(backward, w, rounding)
            pv[big], dv[big] = z[big] * qv, deg * qv - w * qd
            if rounding:
                mu[big] = mq * np.abs(z[big])
        return pv, dv, mu

    # z[:m] are the live roots and z[m:] the held ones; z[j] started from
    # start point order[j]
    order, m = np.arange(deg), deg
    with np.errstate(all="ignore"):
        for _ in range(ABERTH_SWEEPS):
            zl = z[:m]
            pv, dv, _ = evaluate(zl)
            newton = pv / dv
            s = np.zeros(m, dtype=np.complex128)
            lo = 0
            while lo < m:
                hi = min(m, lo + max(1, ABERTH_BLOCK // (deg - lo)))
                diff = zl[lo:hi, None] - z[lo:]
                diff.reshape(-1)[::diff.shape[1] + 1] = np.inf  # each z_i - z_i
                inv = np.divide(1.0, diff, out=diff)
                s[lo:hi] += inv.sum(axis=1)
                if hi < m:
                    s[hi:] -= inv[:, hi - lo:m - lo].sum(axis=0)
                lo = hi
            denom = 1.0 - newton * s
            step = np.where(denom != 0, newton / denom, newton)
            step[pv == 0] = 0
            flat = (dv == 0) & (pv != 0)
            if flat.any():
                z[:m] = np.where(flat, zl * (1 + 1e-8) + 1e-8, zl - step)
                continue
            z[:m] -= step
            moved = np.abs(step)
            if not math.isfinite(moved.max()):
                break
            held = moved < tol
            if held.any():
                z[:m] = np.concatenate((z[:m][~held], z[:m][held]))
                order[:m] = np.concatenate((order[:m][~held], order[:m][held]))
                m -= int(held.sum())
                if not m:
                    break
        pv, dv, mu = evaluate(z, rounding=True)
        # the running bound is first order in u; 1.01 covers the rest
        err = 1.01 * 2.0 ** -53 * mu
        roots, bounds = np.empty_like(z), np.empty(deg)
        roots[order] = z
        bounds[order] = np.where(dv == 0, np.inf, deg * (np.abs(pv) + err) / np.abs(dv))
    return roots, bounds


def _derivative(f: LaurentPoly) -> LaurentPoly:
    """d/dt of a one-variable polynomial."""
    return LaurentPoly(1, {(e - 1,): e * c for (e,), c in f.terms if e})


def _square_free(g: LaurentPoly) -> list[tuple[int, LaurentPoly]]:
    """Yun's square-free decomposition of a primitive, unit-normalized
    one-variable polynomial g = ∏ g_k^k with every g_k square-free: the pairs
    (k, g_k) with g_k not a unit.  The quotients are exact over Z, since
    every gcd divides g and is therefore primitive."""
    dg = _derivative(g)
    a = gcd(g, dg)
    b, c = g // a, dg // a
    factors, k = [], 1
    while b.max_exponents()[0]:
        d = c - _derivative(b)
        a = gcd(b, d)
        if a.max_exponents()[0]:
            factors.append((k, a))
        b, c, k = b // a, d // a, k + 1
    return factors


def mahler_univariate(f: LaurentPoly) -> MahlerEstimate:
    """Jensen's formula: log|lead| plus the log of every root outside the
    unit circle, with an error bound from certified per-root inclusion disks.
    One Aberth run per polynomial: it is deterministic, so a rerun would
    replay it.

    Aberth's method places the roots of a k-fold factor only about
    eps^(1/k) apart, and their disks show it, so a bound above JENSEN_TOL
    is retried on Yun's square-free factors g_k of f = c·∏ g_k^k,
    m(f) = log|c| + sum k·m(g_k), with the factors' diagnostics under
    "factors"; the exact gcd runs only then.  Without a repeated factor the
    bound stands and NonconvergenceError is raised.
    """
    if f.nvars != 1:
        raise ValueError("mahler_univariate takes a one-variable polynomial")
    if f.is_zero():
        raise ValueError("the Mahler measure of 0 is undefined")
    coeffs = _poly_coeffs(f)
    if len(coeffs) == 1:
        return MahlerEstimate(math.log(abs(coeffs[0])), "jensen", 0.0, {"roots": []})
    roots, bounds = _aberth_roots(coeffs)
    r, b = np.abs(roots), np.asarray(bounds)
    value = math.log(abs(coeffs[-1])) + float(np.log(np.maximum(r, 1.0)).sum())
    # an overflowed iteration leaves NaN, which np.maximum(1.0, nan) keeps
    err = float((np.log(np.maximum(r + b, 1.0)) - np.log(np.maximum(r - b, 1.0))).sum())
    if not err <= JENSEN_TOL:
        content = math.gcd(*coeffs)
        factors = _square_free(normalize_unit(f) // content)
        if any(k > 1 for k, _ in factors):
            parts = [(k, mahler_univariate(g)) for k, g in factors]
            return MahlerEstimate(
                math.log(content) + sum(k * e.value for k, e in parts),
                "jensen",
                sum(k * e.error_bound for k, e in parts),
                {"factors": [{"multiplicity": k, **e.diagnostics} for k, e in parts]},
            )
        raise NonconvergenceError(
            f"root certification stalled: error bound {err} above tolerance {JENSEN_TOL}"
        )
    diagnostics = {"roots": np.column_stack((np.real(roots), np.imag(roots))).tolist(),
                   "residual_bounds": b.tolist()}
    return MahlerEstimate(value, "jensen", err, diagnostics)


def default_lawton_schedule(nvars: int) -> list[tuple[int, ...]]:
    """Directions k = (1, m, m^2, ...) for the last four powers of two m
    from 2 to 64 with m^(nvars-1) <= 1024: m = 8 to 64 in two variables, 4
    to 32 in three, where (1, 32, 1024) certifies and (1, 64, 4096) is past
    the rounding floor of Jensen's bound (see _aberth_roots)."""
    ms = [m for m in (2, 4, 8, 16, 32, 64) if m ** (nvars - 1) <= 1024][-4:]
    return [tuple(m ** i for i in range(nvars)) for m in ms]


def mahler_lawton(f: LaurentPoly,
                  schedule: Sequence[Sequence[int]] | None = None) -> MahlerEstimate:
    """Mahler measure through one-variable specializations t^m -> t^(m·k).

    The schedule must have strictly increasing orthogonal defect <k> (the
    shortest nonzero vector of k's orthogonal lattice); the limit over
    <k> -> infinity is the multivariate measure.  The default schedule is
    `default_lawton_schedule` without the rungs whose specialization has a
    degree past the floor of Jensen's bound (6·deg^2·u > JENSEN_TOL, u =
    2^-53, see _aberth_roots), and NonconvergenceError is raised at once
    when none is left.  The reported error_bound is the largest pairwise
    gap among the last three schedule values: a convergence heuristic, not
    a bound on the distance to the limit.  One value gives inf, or 0 in one
    variable, where every value is m(f).
    """
    if f.is_zero():
        raise ValueError("the Mahler measure of 0 is undefined")
    if schedule is None:
        degrees = {k: img.max_exponents()[0] - img.min_exponents()[0]
                   for k in default_lawton_schedule(f.nvars) for img in [f.tau(k)]}
        schedule = [k for k, deg in degrees.items() if 6 * deg * deg * 2.0 ** -53 <= JENSEN_TOL]
        if not schedule:
            raise NonconvergenceError(
                f"every rung of the default Lawton ladder specializes to degree "
                f"{min(degrees.values())} or more, past the floor of Jensen's bound; "
                "pass a schedule")
    schedule = [tuple(int(x) for x in k) for k in schedule]
    if not schedule:
        raise ValueError("empty specialization schedule")
    norms = []
    for k in schedule:
        if len(k) != f.nvars:
            raise ValueError("schedule vector has wrong length")
        norms.append(lawton_norm(k))
    if f.nvars > 1 and any(b <= a for a, b in zip(norms, norms[1:])):
        raise ValueError("schedule must have strictly increasing <k>")
    values = []
    for k in schedule:
        img = f.tau(k)
        if img.is_zero():
            raise ValueError(f"specialization along {k} collapses f to 0; enlarge <k>")
        values.append(mahler_univariate(img).value)
    tail = values[-3:]
    gap = max((abs(a - b) for i, a in enumerate(tail) for b in tail[i + 1:]),
              default=math.inf if f.nvars > 1 else 0.0)
    return MahlerEstimate(
        values[-1],
        "lawton",
        gap,
        {"schedule": [list(k) for k in schedule], "norms": norms, "values": values},
    )


def _unit_circle_angles(r: LaurentPoly) -> list[float]:
    """The angles theta in [0, 1) of the roots e^(2 pi i theta) of r on the
    unit circle (|1 - |z|| < 1e-6), from its square-free part r / gcd(r, r'):
    Aberth's method resolves a root of multiplicity k only to about
    eps^(1/k)."""
    deriv = _derivative(r)
    coeffs = _poly_coeffs(r // gcd(r, deriv) if deriv else r)
    if len(coeffs) == 1:
        return []
    roots, _ = _aberth_roots(coeffs)
    if not all(cmath.isfinite(z) for z in roots):
        raise NonconvergenceError("the split points of Boyd's integral did not converge")
    # + 1.0 first, so that a phase of -1e-17 gives 0.0, not 1.0
    angles = sorted((cmath.phase(z) / (2 * math.pi) + 1.0) % 1.0
                    for z in roots if abs(1 - abs(z)) < 1e-6)
    # each angle apart from the one before it on the circle
    return [u for i, u in enumerate(angles) if u - (angles[i - 1] - (i == 0)) > 1e-12]


@functools.lru_cache(maxsize=None)  # n is a power of two from 16 to 1024
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights (read-only) of the n-point Gauss-Legendre rule on
    [-1, 1], n even, with no LAPACK call: Newton's method in x = cos(phi)
    from Tricomi's estimate, on P_n(cos phi) = sum_k c_k c_(n-k)
    cos((n-2k) phi), c_k = binom(2k, k) / 4^k, a fixed number of numpy
    calls per step.  The derivative at the last step's end point, for the
    weights 2 / P_n'(phi)^2, comes from Legendre's equation
    P'' = -cot(phi) P' - n(n+1) P.  Cosines and sines are taken from one
    complex exponential: numpy's first cos and sin calls in a process raise
    its peak RSS by about 0.25 MB."""
    c = [1.0]
    for j in range(1, n + 1):
        c.append(c[-1] * (1 - 0.5 / j))
    a = np.array([c[j] * c[n - j] * (1 if 2 * j == n else 2) for j in range(n // 2 + 1)])
    k = np.arange(n // 2 + 1)
    m = n - 2 * k

    def cot(phi):
        z = np.exp(1j * phi)
        return z.real / z.imag

    phi = np.pi * (4 * k[1:] - 1) / (4 * n + 2)
    phi += (n - 1) / (8 * n ** 3) * cot(phi)
    while True:
        e = np.exp(1j * np.outer(phi, m))
        p, dp = (e.real * a).sum(axis=1), -(e.imag * (a * m)).sum(axis=1)
        step = p / dp
        phi = phi - step
        dp += step * (dp * cot(phi + step) + n * (n + 1) * p)
        if np.abs(step).max() < 1e-8:  # the next step would be below 1e-15
            break
    x, w = np.exp(1j * phi).real, 2 / (dp * dp)
    nodes, weights = np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _jensen_integrand(coeffs: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """H(theta) = m(f(x, .)) at x = e^(2 pi i theta), for the polynomial with
    coeffs[i, j] the coefficient of x^i y^j: log max(|a_0(x)|, |a_1(x)|) for
    degree D <= 1 in y, else Jensen's formula over the roots in y (batched
    companion eigenvalues), of f(x, .) or of its reversal, which has the
    same measure, whichever has the leading coefficient of larger modulus."""
    powers = np.exp(2j * np.pi * np.outer(theta, np.arange(coeffs.shape[0])))
    a = (powers[:, :, None] * coeffs).sum(axis=1)
    mod = np.abs(a)
    deg = a.shape[1] - 1
    if deg <= 1:
        return np.log(mod.max(axis=1))
    a = np.where((mod[:, 0] > mod[:, -1])[:, None], a[:, ::-1], a)
    lead = a[:, -1]
    comp = np.zeros((len(a), deg, deg), dtype=np.complex128)
    comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1
    comp[:, :, -1] = -a[:, :-1] / lead[:, None]
    roots = np.abs(np.linalg.eigvals(comp))
    return np.log(np.abs(lead)) + np.log(np.maximum(roots, 1.0)).sum(axis=1)


def mahler_boyd(f: LaurentPoly) -> MahlerEstimate:
    """Boyd's one-dimensional integral (Canad. Math. Bull. 24, 1981) for a
    two-variable polynomial: m(f) = m(c) + the integral over theta in [0, 1)
    of H(theta) = m(g(e^(2 pi i theta), .)).  Here y is the variable of lower
    degree D, x the other, and f = c(x)·g(x, y) with c the content in x,
    whose measure is Jensen's.

    H is analytic except where a root y of g(x, .) meets the unit circle.
    Those points x are unit-circle roots of R(x) = Res_y(g, g*), with
    g* = x^d·y^D·g(1/x, 1/y); R is exact over Z.  With none, the periodic H
    takes the trapezoid rule at midpoints.  Else each arc [a, b] between
    them takes an open Gauss-Legendre rule in s, with theta = a + (b - a)
    (1 + sin(pi s / 2)) / 2: where two roots in y meet on the circle, H has
    a square-root end point, which that substitution makes analytic.  The
    number of nodes n doubles from 16 until two successive rules differ by
    at most BOYD_TOL or n = 512; that gap (plus the error bound of m(c)) is
    the error_bound, a convergence estimate like Lawton's.  R = 0 means g
    shares a factor with g* (every link's Alexander polynomial does, by
    Torres symmetry): then the value is Lawton's limit on the default
    schedule.  Diagnostics: the split angles theta, the nodes per arc of
    the last rule and m(c).  For D >= 2 a repeated factor h = gcd(g, dg/dy)
    is split off first, m(g) = m(g / h) + m(h), with the two estimates'
    diagnostics under "factors": the companion eigenvalues of a k-fold root
    are accurate to eps^(1/k) only.
    """
    if f.nvars != 2:
        raise ValueError("mahler_boyd takes a two-variable polynomial")
    if f.is_zero():
        raise ValueError("the Mahler measure of 0 is undefined")
    p = normalize_unit(f)
    degs = p.max_exponents()
    iy = int(degs[0] >= degs[1])
    rows: list[dict] = [{} for _ in range(degs[iy] + 1)]
    for e, c in p.terms:
        rows[e[iy]][(e[1 - iy],)] = c
    a = [LaurentPoly(1, r) for r in rows]
    content = gcd_list(sorted(a, key=len), 1)  # a unit among the a_j ends it at once
    a = [aj // content for aj in a]
    if len(content) == 1:  # a constant: no root finder to run
        base = MahlerEstimate(math.log(abs(content.coefficients()[0])), "jensen", 0.0)
    else:
        base = mahler_univariate(content)
    if len(a) > 2:
        # a k-fold root in y costs its eigenvalues eps^(1/k): m(g) = m(g / h) + m(h)
        g = LaurentPoly(2, {(i, j): c for j, aj in enumerate(a) for (i,), c in aj.terms})
        h = gcd(g, LaurentPoly(2, {(i, j - 1): j * c for (i, j), c in g.terms if j}))
        if h.max_exponents()[1]:
            parts = [mahler_boyd(g // h), mahler_boyd(h)]
            if any(e.method != "boyd" for e in parts):
                return mahler_lawton(f)
            return MahlerEstimate(
                base.value + sum(e.value for e in parts),
                "boyd",
                base.error_bound + sum(e.error_bound for e in parts),
                {"content": base.value, "factors": [e.diagnostics for e in parts]},
            )
    dx = max(aj.max_exponents()[0] for aj in a)
    star = [LaurentPoly(1, {(dx - e,): c for (e,), c in aj.terms}) for aj in reversed(a)]
    deg, zero = len(a) - 1, LaurentPoly.zero(1)
    sylvester = [[zero] * i + g[::-1] + [zero] * (deg - 1 - i)
                 for g in (a, star) for i in range(deg)]
    rank, det = eliminate(sylvester, 2 * deg)  # R up to sign, exact over Z[x]
    if rank < 2 * deg:
        return mahler_lawton(f)
    r = LaurentPoly.one(1) * det  # det is the int 1 when D = 0
    splits = _unit_circle_angles(r)
    coeffs = _float_coeffs([aj.coeff((i,)) for i in range(dx + 1) for aj in a])
    coeffs = coeffs.reshape(dx + 1, len(a))
    if splits:
        starts = np.array(splits)
        half = (np.append(starts[1:], starts[0] + 1) - starts)[:, None] / 2

        def rule(n):
            # Gauss-Legendre in s, theta = start + half (1 + sin(pi s / 2))
            nodes, weights = _gauss_legendre(n)
            z = np.exp(0.5j * np.pi * nodes)
            h = _jensen_integrand(coeffs, (starts[:, None] + half * (1 + z.imag)).ravel())
            return (half * (weights * z.real * np.pi / 2) * h.reshape(len(starts), n)).sum(axis=1)
    else:
        def rule(n):
            return np.array([_jensen_integrand(coeffs, (np.arange(n) + 0.5) / n).mean()])

    n, last = BOYD_NODES
    q = rule(n)
    while True:
        finer = rule(2 * n)
        gap = float(np.abs(finer - q).sum())
        q = finer
        if gap <= BOYD_TOL or n >= last:
            break
        n *= 2
    return MahlerEstimate(
        base.value + float(q.sum()),
        "boyd",
        base.error_bound + gap,
        {"split_points": splits, "nodes": 2 * n, "content": base.value},
    )


def _torus_eval_log(f: LaurentPoly, thetas: np.ndarray) -> np.ndarray:
    """log|f| at torus points exp(2*pi*i*theta); theta is (N, nvars)."""
    exps = np.array([e for e, _ in f.terms], dtype=np.float64)
    coefs = np.array([c for _, c in f.terms], dtype=np.complex128)
    phases = thetas @ exps.T
    vals = np.exp(2j * np.pi * phases) @ coefs
    with np.errstate(divide="ignore"):
        return np.log(np.abs(vals))


def mahler_quadrature(f: LaurentPoly, samples: int = 1_000_000, seed: int = 0) -> MahlerEstimate:
    """Median-of-means Monte Carlo estimate of the torus integral of log|f|.

    Sampling uses counter-based Philox streams spawned deterministically from
    the seed, one per shard; the first samples % shards shards draw one
    point more than the rest.  The value is the median of the shard means
    and the error bound is the standard error of that median
    (1.2533 * std(means) / sqrt(shards)).  Samples where log|f| is not
    finite (underflow at a zero of f) are resampled and counted.
    """
    if f.is_zero():
        raise ValueError("the Mahler measure of 0 is undefined")
    if samples < 1:
        raise ValueError("quadrature needs at least one sample")
    shards = min(QUADRATURE_SHARDS, samples)
    per_shard, extra = divmod(samples, shards)
    root = np.random.SeedSequence(seed)
    children = root.spawn(shards)
    means = []
    rejected = 0
    for i, child in enumerate(children):
        rng = np.random.Generator(np.random.Philox(child))
        count = per_shard + (i < extra)
        remaining = count
        total = 0.0
        while remaining > 0:
            chunk = min(remaining, 1 << 19)
            thetas = rng.random((chunk, f.nvars))
            logs = _torus_eval_log(f, thetas)
            good = np.isfinite(logs)
            bad = int(chunk - good.sum())
            if bad:
                rejected += bad
            total += float(logs[good].sum())
            remaining -= int(good.sum())
        means.append(total / count)
    means_arr = np.asarray(means)
    value = float(np.median(means_arr))
    if shards > 1:
        err = 1.2533 * float(np.std(means_arr, ddof=1)) / math.sqrt(shards)
    else:
        err = float("inf")
    return MahlerEstimate(
        value,
        "quadrature",
        err,
        {"samples": samples, "shards": shards, "seed": seed,
         "rejected": rejected, "shard_means": [float(m) for m in means_arr]},
    )
