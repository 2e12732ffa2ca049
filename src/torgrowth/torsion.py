"""The central quantity: |Tor_Z(M ⊗ Z[A_Gamma])| and its growth statistic.

Every torsion query reads `PresentedModule.reduced`, the module's
`presmod.reduce_presentation` kept once per module: its moves stay invertible
over Z[A_Gamma], so the cokernel is unchanged, and a unit of R is not
|A_Gamma| SNF pivots.  `route` alone picks one of four routes per sample,
for `torsion_and_betti` and the size guard of `growthlab.run` alike, from
the presentation and the lattice only: it never enumerates A_Gamma.  Each
zero column it counts adds |A_Gamma| to the Betti number, the route gives
the rest, and each product route handles its own degenerate case by SNF:

* free, when no live column is left: nothing to compute;
* companion, when A_Gamma = Z/N is cyclic.  For y in Z x + N Z^n (x_i the
  image of e_i) with gcd(y, N) = 1, t_i -> t^y_i onto Z[t]/(t^N - 1) is the
  quotient map up to an automorphism of Z/N; take the y of least span
  (±k for Gamma_{s,j}) and reduce the image again over Z[t^±1].  If one
  live entry g is left with an end coefficient ±1 (made the leading one by
  t -> 1/t, a unit mod t^N - 1), Z[t]/(g) is Z^D with t acting by the
  companion matrix C, and the torsion is |det(C^N - I)|, or SNF of that
  D x D matrix when it is 0.  One variable (knots) needs no substitution;
* Fourier, when one live entry f is left and |A_Gamma| >= FOURIER_MIN_ORDER:
  x -> f x on Z[A_Gamma] has determinant prod_chi f(chi), so when f
  vanishes at no character (screened in floating point) the torsion is
  `_character_product(f, group)` and the entry adds nothing to the Betti
  number; else SNF of its expansion;
* SNF, for every other presentation, of the integer matrix `expand` makes
  by replacing each entry with the regular-representation block of its
  image in Z[A_Gamma].  `snf` returns the pair (torsion order, rank): the
  product and the count of the nonzero entries of `intlinalg.snf_diagonal`.

Two exact products over characters back these routes with no floating
point: the product of f over the characters of A_Gamma (`character_product`)
and Fox's product for cyclic branched covers of knots
(`cyclic_branched_oracle`).  Both run on one multi-modular engine,
`_character_product`, that multiplies Galois-orbit norms.  The characters of
order m fall into orbits of phi(m), and the product of f over one orbit is
an integer, a norm from Q(zeta_m).  Its bound (the triangle inequality, or
AM-GM over the orbit with Parseval over A) grows with phi(m), not with
|A_Gamma|, and sets the number of pre-sieved primes p = 1 mod the exponent
of A_Gamma: 3 + t1 + t2 over 256 Z^2 (|A| = 65536) draws 10, where the flat
product over A drew about 3,660.  A Fourier transform over F_p through the
one exponent matrix of the characters evaluates every prime of a chunk in
one numpy pass, a halving product mod p runs inside each orbit, and a CRT
tree lifts each orbit's norm to an integer.  `character_product`
is the Fourier route itself, so for Fourier samples SNF of the expansion (in
tests) and the benchmark pins are the independent checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache, reduce
from itertools import accumulate, combinations
from operator import add

import numpy as np

from .groupalg import character_exponents, mult_matrix, project_poly
from .intlinalg import bareiss_det, hnf_rows, int_log, snf_diagonal
from .lattices import FinAbGroup, Subgroup, direction_of, min_norm, quotient, size_reduce
from .laurent import LaurentPoly
from .presmod import PresentedModule, reduce_presentation


class OracleDegenerateError(ValueError):
    """The product formula is undefined: Delta vanishes at a root of unity."""


def snf(matrix) -> tuple[int, int]:
    """(torsion order, rank) of an integer matrix (nested lists): the product
    and the count of the nonzero entries of its Smith normal form."""
    diag = [d for d in snf_diagonal(matrix) if d]
    return math.prod(diag), len(diag)


def _resolve_group(gamma) -> FinAbGroup:
    if isinstance(gamma, FinAbGroup):
        return gamma
    if isinstance(gamma, Subgroup):
        return quotient(gamma)
    raise TypeError("expected a Subgroup or FinAbGroup")


def expand(matrix, gamma) -> list[list[int]]:
    """Integer matrix of the presentation over Z[A_Gamma].

    Each polynomial entry becomes the |A| x |A| multiplication block of its
    projection, preserving the canonical element order; an m1 x m0 matrix
    over R becomes (m1*|A|) x (m0*|A|) over Z.
    """
    group = _resolve_group(gamma)
    rows = matrix.matrix if isinstance(matrix, PresentedModule) else matrix
    N = group.order
    out = []
    for row in rows:
        # each output row is its block rows joined, so one column copies nothing
        blocks = [mult_matrix(project_poly(e, group), group) for e in row]
        out += [reduce(add, parts) for parts in zip(*blocks)] if row else [[] for _ in range(N)]
    return out


def _companion_minus_identity(f: LaurentPoly, ell: int) -> list[list[int]]:
    """C^ell - I for the companion matrix C of f (leading coefficient ±1) on
    the basis 1, t, ..., t^(D-1) of Z[t]/(f): column j of C^ell holds
    t^(ell+j) mod f, from t^ell mod f by square-and-multiply in Z[t]/(f)."""
    lo, hi = f.min_exponents()[0], f.max_exponents()[0]
    D, lead = hi - lo, f.coeff((hi,))
    low = [-lead * f.coeff((lo + r,)) for r in range(D)]  # t^D = sum low[r] t^r mod f

    def reduce(a):  # coefficients, lowest first, to those of the residue mod f
        for k in range(len(a) - 1, D - 1, -1):
            if x := a[k]:
                for r, c in enumerate(low, k - D):
                    a[r] += x * c
        return a[:D]

    P = reduce([0, 1] + [0] * D)
    for bit in bin(ell)[3:]:  # t^ell by square-and-multiply
        sq = [0] * (2 * D)
        for i, x in enumerate(P):
            for j, y in enumerate(P, i):
                sq[j] += x * y
        P = reduce([0] + sq if bit == "1" else sq)
    cols = [P]
    for _ in range(D - 1):
        cols.append(reduce([0] + cols[-1]))
    return [[col[r] - (r == j) for j, col in enumerate(cols)] for r in range(D)]


def _companion_block(f: LaurentPoly, ell: int) -> tuple[int, int]:
    """(|Tor|, Betti) of Z[t]/(f, t^ell - 1) = coker(C^ell - I) on Z^D, for
    the companion matrix C of f (leading coefficient ±1)."""
    P = _companion_minus_identity(f, ell)
    if det := bareiss_det(P):  # SNF only for the rare singular block
        return abs(det), 0
    tor, rank = snf(P)
    return tor, len(P) - rank


def _cyclic_exponents(mod: PresentedModule, group: FinAbGroup) -> list[int]:
    """The y of least span for `mod` among a size-reduced basis of
    L = Z x + N Z^n, its pairwise sums and differences, and x itself (x_i the
    symmetric image of e_i in A = Z/N), subject to gcd(y, N) = 1, which x
    meets since the x_i generate A."""
    N = group.order
    eye = [[int(i == j) for j in range(group.nvars)] for i in range(group.nvars)]
    x = [sum(group.project(e)) for e in eye]  # the one digit, or 0 when A = 0
    x = [a - N if 2 * a > N else a for a in x]
    basis = size_reduce(hnf_rows([x] + [[N * a for a in e] for e in eye]))
    sums = [[a + s * b for a, b in zip(u, v)] for u, v in combinations(basis, 2) for s in (1, -1)]

    def span(y):  # summed over the entries, before any cancellation
        dots = [[sum(a * b for a, b in zip(e, y)) for e, _ in f.terms]
                for row in mod.matrix for f in row if f]
        return sum(max(d) - min(d) for d in dots)

    return min((y for y in basis + sums + [x] if math.gcd(N, *y) == 1), key=span)


FOURIER_MIN_ORDER = 32  # SNF beat the product by 1.3-1.7x at |A| = 16, 25; by < 15% at 27, 32


def _screen_nonzero(f: LaurentPoly, group: FinAbGroup) -> bool:
    """Whether min |f(chi)| over the characters of A exceeds 1e-9 ||f||_1 in
    floating point: far above rounding error, so a true zero fails it, and
    a small value that fails it only costs the exact SNF route."""
    norm = f.one_norm()
    coeffs = np.array([c / norm for _, c in f.terms])
    return bool(abs(np.exp(2j * np.pi / group.exponent * _powers(f, group)) @ coeffs).min() > 1e-9)


def route(mod: PresentedModule, group: FinAbGroup) -> tuple[str, int, object]:
    """The route `torsion_and_betti` takes for a reduced presentation over A:
    (name, free, arg), `free` counting the zero columns.

    ("free", m0, None) when no column is live.  ("companion", free, g) when
    A is cyclic and, after t_i -> t^y_i and reduction over Z[t^±1], one row
    is left whose one live entry has an end coefficient ±1: g is that entry,
    at t -> 1/t when only the trailing one is.  Else ("fourier", free, f)
    when one row with one live entry f is left and |A| >= FOURIER_MIN_ORDER.
    Else ("snf", free, rows): the live columns' rows, for SNF of their
    expansion.  Nothing here grows with |A|: the Fourier route's screen
    runs in `torsion_and_betti`.
    """
    live = [j for j in range(mod.m0) if any(r[j] for r in mod.matrix)]
    if not live:
        return "free", mod.m0, None
    one_entry = len(mod.matrix) == 1 and len(live) == 1
    if group.rank <= 1:
        if mod.nvars > 1:  # the univariate route of the specialised presentation
            y = _cyclic_exponents(mod, group)
            sub = route(reduce_presentation(PresentedModule(
                1, tuple(tuple(e.tau(y) for e in row) for row in mod.matrix), mod.m0)), group)
            if sub[0] in ("free", "companion"):
                return sub
        elif one_entry:
            g = mod.matrix[0][live[0]]
            ends = g.coefficients()
            if abs(ends[-1]) == 1:
                return "companion", mod.m0 - 1, g
            if abs(ends[0]) == 1:
                return "companion", mod.m0 - 1, g.tau((-1,))
    # the n-variable entry: a specialised one does not match the group's dimension
    if one_entry and mod.nvars == group.nvars and group.order >= FOURIER_MIN_ORDER:
        return "fourier", mod.m0 - 1, mod.matrix[0][live[0]]
    return "snf", mod.m0 - len(live), [[r[j] for j in live] for r in mod.matrix]


def torsion_and_betti(mod: PresentedModule, gamma) -> tuple[int, int]:
    """|Tor_Z(M ⊗ Z[A_Gamma])| and the free rank over Z, by the one `route`:
    each of its zero columns adds |A| to the Betti number.  Gamma must lie in
    Z^nvars of the module's ring; any other dimension is a ValueError."""
    group = _resolve_group(gamma)
    if mod.nvars != group.nvars:
        raise ValueError(f"the module has nvars = {mod.nvars} but Gamma lies in Z^{group.nvars}")
    name, free, arg = route(mod.reduced, group)
    tor, b = 1, 0
    if name == "companion":
        tor, b = _companion_block(arg, group.order)
    elif name == "fourier" and _screen_nonzero(arg, group):
        if not (tor := _character_product(arg, group)):
            raise ArithmeticError(f"{arg} passed the float screen but vanishes at a character")
    elif name != "free":  # SNF, also of a Fourier entry that may vanish at a character
        rows = [[arg]] if name == "fourier" else arg
        tor, rank = snf(expand(rows, group))
        b = len(rows[0]) * group.order - rank
    return tor, free * group.order + b


def torsion_order(mod: PresentedModule, gamma) -> int:
    """|Tor_Z(M ⊗ Z[A_Gamma])|: product of the nonzero invariant factors."""
    return torsion_and_betti(mod, gamma)[0]


def betti(mod: PresentedModule, gamma) -> int:
    """Free rank of M ⊗ Z[A_Gamma] over Z."""
    return torsion_and_betti(mod, gamma)[1]


def decimal_str(n: int) -> str:
    """str(n) past CPython's int-to-str digit limit, which decimal skips."""
    return str(Decimal(n))


def decimal_int(s: str) -> int:
    """The inverse of `decimal_str` on a string of decimal digits."""
    if not s.isdecimal():
        raise ValueError(f"not a string of decimal digits: {s!r}")
    return int(Decimal(s))


@dataclass(frozen=True)
class GrowthSample:
    """One (Gamma, torsion, growth) record of an experiment."""

    gamma: str
    index: int
    min_norm: float
    torsion_order: int
    betti: int
    direction: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.torsion_order < 1:
            raise ValueError("torsion order is at least 1")

    @property
    def log_torsion(self) -> float:
        return int_log(self.torsion_order) if self.torsion_order > 1 else 0.0

    @property
    def growth_stat(self) -> float:
        return self.log_torsion / self.index

    CSV_HEADER = "gamma;index;min_norm;torsion_order;log_torsion;growth_stat;betti;direction"

    def to_json(self) -> dict:
        """The sample's fields and statistics, the torsion order as a decimal string."""
        return {
            "gamma": self.gamma,
            "index": self.index,
            "min_norm": self.min_norm,
            "torsion_order": decimal_str(self.torsion_order),
            "log_torsion": self.log_torsion,
            "growth_stat": self.growth_stat,
            "betti": self.betti,
            "direction": list(self.direction) if self.direction else None,
        }

    def csv_row(self) -> str:
        return self.record_row(self.to_json())

    @classmethod
    def record_row(cls, rec: dict) -> str:
        """The CSV row of a `to_json` record."""
        return ";".join(str(rec[k]) for k in cls.CSV_HEADER.split(";"))

    @classmethod
    def from_csv_row(cls, row: str) -> "GrowthSample":
        """The inverse of `csv_row`; a row of the first seven fields has no direction."""
        parts = row.split(";")
        cell = parts[7] if len(parts) > 7 else "None"
        direction = None if cell == "None" else json.loads(cell)
        if direction is not None and not isinstance(direction, list):
            raise ValueError(f"direction is neither a JSON list nor None: {cell!r}")
        return cls(
            gamma=parts[0],
            index=int(parts[1]),
            min_norm=float(parts[2]),
            torsion_order=decimal_int(parts[3]),
            betti=int(parts[6]),
            direction=None if direction is None else tuple(direction),
        )


def growth_sample(mod: PresentedModule, gamma: Subgroup, descriptor: str | None = None) -> GrowthSample:
    """Torsion order, Betti number, and growth statistic for one subgroup."""
    group = quotient(gamma)
    tor, b = torsion_and_betti(mod, group)
    return GrowthSample(
        gamma=descriptor if descriptor is not None else str(gamma.to_json()),
        index=group.order,
        min_norm=min_norm(gamma),
        torsion_order=tor,
        betti=b,
        direction=direction_of(group),
    )


# ---------------------------------------------------------------------------
# Exact products over characters: a Fourier transform over F_p
# ---------------------------------------------------------------------------

_PRIME_LIMIT = 2 ** 31
_CELLS = 1 << 13  # candidates in a sieve window; int64 cells in a chunk's temporaries


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: deterministic below 3.2e9 > 2^31."""
    if n < 11:
        return n in (2, 3, 5, 7)
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for a in (2, 3, 5, 7):
        x = pow(a, (n - 1) >> s, n)  # 1, or -1 among x, x^2, ..., x^(2^(s-1))
        if x != 1 and n - 1 not in accumulate(range(s - 1), lambda y, _: y * y % n, initial=x):
            return False
    return True


def _primes_1_mod(e: int):
    """The primes p = 1 mod e below _PRIME_LIMIT, descending: in windows of
    the candidates 1 + k e, 2^9 doubling up to _CELLS, each prime q < size/16
    not dividing e with q^2 at most the least candidate (so no q strikes itself)
    strikes its multiples by one slice assignment; Miller-Rabin tests the rest."""
    sieve = np.ones(_CELLS // 16, dtype=bool)
    for q in range(2, math.isqrt(len(sieve)) + 1):
        sieve[q * q::q] = False
    small = [q for q in np.flatnonzero(sieve)[2:].tolist() if e % q]
    top, size = (_PRIME_LIMIT - 2) // e, 1 << 9  # top: k of the largest candidate
    while top > 0:
        width = min(top, size)
        high, low = 1 + top * e, 1 + (top - width + 1) * e
        alive = np.ones(width, dtype=bool)  # alive[i] for the candidate high - i e
        for q in small:
            if 16 * q >= size or q * q > low:
                break
            alive[high % q * pow(e, -1, q) % q::q] = False
        yield from filter(_is_prime, (high - i * e for i in np.flatnonzero(alive).tolist()))
        top, size = top - width, min(2 * size, _CELLS)


def _roots_of_unity(e: int, primes: list[int]) -> list[int]:
    """A primitive e-th root of unity mod each prime p = 1 mod e: the product, over
    the q^a exactly dividing e, of h^(e/q^a) for h = g^((p-1)/e) and the first prime
    g with h^(e/q) != 1, of order q^a (a composite g is no new non-q-th power)."""
    parts = [(q, math.gcd(e, q ** e.bit_length()))  # q and the q-part of e
             for q in range(2, e + 1) if e % q == 0 and _is_prime(q)]
    roots = []
    for p in primes:
        z, todo, g = 1, parts, 1
        while todo:
            g = next(g for g in range(g + 1, p) if _is_prime(g))
            h = pow(g, (p - 1) // e, p)
            z = z * math.prod(pow(h, e // qa, p) for q, qa in todo if pow(h, e // q, p) != 1) % p
            todo = [(q, qa) for q, qa in todo if pow(h, e // q, p) == 1]
        roots.append(z)
    return roots


@lru_cache(maxsize=1)  # the screen and the product of one Fourier sample share it
def _powers(f: LaurentPoly, group: FinAbGroup) -> np.ndarray:
    """P[c, k] with f(chi_c) = sum_k f_k z^P[c, k], z a primitive e-th root of
    unity, for the exponent matrix W of the characters and the k-th term of f."""
    exps = np.array([exp for exp, _ in f.terms], dtype=np.int64).reshape(-1, f.nvars)
    out = character_exponents(group) @ (exps.T % group.exponent) % group.exponent
    out.flags.writeable = False
    return out


def _galois_orbits(group: FinAbGroup) -> list[np.ndarray]:
    """The Galois orbits {k c : k in (Z/m)^*} of the characters c of A, one
    (orbits x phi(m)) block of element indices per order m, m ascending.

    Per order m with phi(m) >= 32, each orbit is enumerated from its least
    unlabelled character: at most |A|/32 Python steps.  Below, each character
    is labelled by the least index over its orbit, in phi(m) - 1 < 31 numpy
    passes over the characters of order m.  Either way the labels cost
    O(|A|) memory and near-linear time, on any A.
    """
    dims, e = group.invariant_factors, group.exponent
    small = [m for m in range(1, math.isqrt(e) + 1) if e % m == 0]
    divisors = sorted({*small, *(e // m for m in small)})
    prime_divisors = [q for q in divisors[1:] if _is_prime(q)]
    orders = np.empty(dims, dtype=np.int64)
    for m in reversed(divisors):  # m c = 0 iff d_i / gcd(m, d_i) divides c_i: the least m last
        orders[tuple(slice(None, None, d // math.gcd(m, d)) for d in dims)] = m
    orders = orders.ravel()
    d = np.array(dims, dtype=np.int64).reshape(-1, 1)
    strides = np.array([math.prod(dims[i + 1:]) for i in range(group.rank)], dtype=np.int64).reshape(-1, 1)
    by_order = np.argsort(orders, kind="stable")  # each order's characters ascending
    ends = [*np.flatnonzero(np.diff(orders[by_order])).tolist(), group.order - 1]
    blocks, start = [], 0
    for end in ends:
        members, m = by_order[start:end + 1], int(orders[by_order[end]])
        units = np.ones(m, dtype=bool)
        for q in prime_divisors:
            if m % q == 0:
                units[::q] = False
        units = np.flatnonzero(units)  # [0] for m = 1
        # digit i times its stride, mod d_i times the stride: k c's index is a column sum
        sub, mod, start = members // strides % d * strides, d * strides, end + 1
        if len(units) >= 32:
            rows, seen, pos = [], np.zeros(len(members), dtype=bool), 0
            while len(rows) * len(units) < len(members):
                pos += int(np.argmin(seen[pos:]))
                rows.append((sub[:, pos, None] * units % mod).sum(axis=0))
                seen[np.searchsorted(members, rows[-1])] = True
            blocks.append(np.array(rows))
        else:
            least = members.copy()
            for k in units[1:].tolist():
                np.minimum(least, (k * sub % mod).sum(axis=0), out=least)
            blocks.append(members[np.argsort(least, kind="stable")].reshape(-1, len(units)))
    return blocks


def _character_product(f: LaurentPoly, group: FinAbGroup, skip_trivial: bool = False) -> int:
    """|prod f(chi)| over the characters of A, or over its nontrivial ones.

    The product over one Galois orbit O of characters of order m is the norm
    N_O = N_{Q(zeta_m)/Q}(f(chi)), an integer.  With F = project_poly(f),
    S = ||F||_2^2 and |O| = phi(m), the triangle inequality, and AM-GM over
    O with Parseval over A, bound |N_O|^2 by B_O = min(||F||_1^(2|O|),
    (|A| S / |O|)^|O|).  Primes p = 1 mod e, the exponent of A, are added
    until their product M has M^2 > 4 B_O for every orbit, in integers, and
    each orbit takes only the first primes its own bound needs.  F_p has a
    primitive e-th root z and sends f(chi_c) to sum_k f_k z^(W[c] . a_k), W
    the exponent matrix.  Each chunk of primes is one numpy pass (a table of
    each root's powers, a gather per term of f, a halving product mod p
    inside each orbit); a pairwise CRT tree lifts each orbit's residues to
    the symmetric residue mod its M, N_O, and the norms multiply to the
    product.  `skip_trivial` drops the orbit of order 1.
    """
    if f.nvars != group.nvars:
        raise ValueError("dimension mismatch between polynomial and group")
    blocks = _galois_orbits(group)[1 if skip_trivial else 0:]
    if not blocks:  # the empty product, of the nontrivial characters of A = 0
        return 1
    F = project_poly(f, group)
    if not (S := sum(c * c for c in F)):
        return 0
    L1, X, e = sum(map(abs, F)), group.order * S, group.exponent
    bounds = {s: (L1 ** (2 * s), 1) if L1 * L1 * s <= X else (X ** s, s ** s)  # B_O = num / den
              for s in {b.shape[1] for b in blocks}}
    primes, M, search, count = [], 1, _primes_1_mod(e), {}  # count[s]: the primes that orbits of s need
    while len(count) < len(bounds):
        if (p := next(search, None)) is None:
            raise ArithmeticError(f"too few primes p = 1 mod {e} below {_PRIME_LIMIT} "
                                  f"for {group.order} characters")
        primes.append(p)
        M *= p
        for s, (num, den) in bounds.items():  # M^2 den > 4 num, multiplied out only near the boundary
            gap = 2 * M.bit_length() + den.bit_length() - num.bit_length()
            if s not in count and (gap >= 5 or gap >= 2 and M * M * den > 4 * num):
                count[s] = len(primes)
    blocks.sort(key=lambda b: -count[b.shape[1]])  # the characters a prime evaluates are a prefix
    powers = _powers(f, group)[np.concatenate([b.ravel() for b in blocks])]
    roots, residues = _roots_of_unity(e, primes), []
    step = max(1, _CELLS // max(len(powers), 1 << (e - 1).bit_length()))  # ~_CELLS cells per array
    for i in range(0, len(primes), step):
        chunk, live = primes[i:i + step], [b for b in blocks if count[b.shape[1]] > i]
        p, z = (np.array(x[i:i + step], dtype=np.int64)[:, None] for x in (primes, roots))
        table = np.ones_like(p)  # table[j, m] = z_j^m mod p_j, doubled in m up to e
        while table.shape[1] < e:
            table, z = np.hstack([table, table * z % p]), z * z % p
        cols = powers[:sum(b.size for b in live)]
        vals = sum((table * np.array([c % q for q in chunk])[:, None] % p)[:, cols[:, k]]
                   for k, (_, c) in enumerate(f.terms)) % p  # a sum of terms below p each
        norms, at = [], 0
        for b in live:  # orbits x phi(m) values per prime, halves multiplied mod p
            v, at = vals[:, at:at + b.size].reshape(len(chunk), *b.shape), at + b.size
            while v.shape[2] > 1:  # an odd last column kept
                h = v.shape[2] // 2
                v = np.concatenate([v[:, :, :h] * v[:, :, h:2 * h] % p[:, :, None], v[:, :, 2 * h:]], axis=2)
            norms.append(v[:, :, 0])
        residues.append(np.hstack(norms))
    out, at = 1, 0
    for b in blocks:  # each block's norms from its own primes
        k = count[b.shape[1]]
        rows = np.vstack([r[:, at:at + len(b)] for r in residues[:-(-k // step)]])[:k]
        rs, mod = _crt(list(zip(rows.tolist(), primes[:k])))
        out *= math.prod(r - mod if 2 * r > mod else r for r in rs)
        at += len(b)
    return abs(out)


def _crt(level: list[tuple[list[int], int]]) -> tuple[list[int], int]:
    """([x_j], M) with x_j = r_j mod m, 0 <= x_j < M, for residue lists r
    modulo pairwise coprime m and their product M, by a pairwise tree."""
    while len(level) > 1:
        merged = []
        for (rs, m), (ss, q) in zip(level[::2], level[1::2]):
            inv = pow(m, -1, q)
            merged.append(([r + m * ((s - r) * inv % q) for r, s in zip(rs, ss)], m * q))
        level = merged + level[2 * len(merged):]  # an odd one out waits a level
    return level[0]


def cyclic_branched_oracle(delta_poly: LaurentPoly, ell: int) -> int:
    """Product over j = 1..ell-1 of |Delta(zeta_ell^j)|, exactly.

    Fox's formula |Res(Delta, (t^ell - 1)/(t - 1))| for the torsion of the
    ell-fold cyclic branched cover of a knot: the product over the nontrivial
    characters of Z/ell.  Raises OracleDegenerateError when it is 0.
    """
    if delta_poly.nvars != 1:
        raise ValueError("the oracle takes a univariate Alexander polynomial")
    if delta_poly.is_zero():
        raise ValueError("zero polynomial")
    if ell < 1:
        raise ValueError("ell must be positive")
    out = _character_product(delta_poly, quotient(Subgroup.cyclic(ell)), skip_trivial=True)
    if out == 0:
        raise OracleDegenerateError(
            f"Delta vanishes at an {ell}-th root of unity; product formula degenerate"
        )
    return out


def character_product(f: LaurentPoly, gamma) -> int:
    """|prod over characters of f(z)| as an exact integer.

    For a 1 x 1 presentation this is the determinant of the expanded matrix,
    hence the torsion order when f vanishes at no character (0 otherwise).
    """
    return _character_product(f, _resolve_group(gamma))
