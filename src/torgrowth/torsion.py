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
`_character_product`: pre-sieved primes p = 1 mod the exponent of A_Gamma,
as many as the Parseval bound ||F||_2^|A| needs, a Fourier transform over
F_p through the one exponent matrix of the characters for every prime of a
chunk in one numpy pass, and a CRT tree to the integer.  `character_product`
is the Fourier route itself, so for Fourier samples SNF of the expansion (in
tests) and the benchmark pins are the independent checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal
from functools import reduce
from itertools import accumulate, combinations
from operator import add

import numpy as np

from .groupalg import character_exponents, mult_matrix, project_poly
from .intlinalg import bareiss_det, hnf_rows, int_log, snf_diagonal
from .lattices import FinAbGroup, Subgroup, direction_of, min_norm, quotient, size_reduce
from .laurent import LaurentPoly
from .presmod import ChainComplex, PresentedModule, reduce_presentation


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
    norm = sum(abs(c) for _, c in f.terms)
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
    each of its zero columns adds |A| to the Betti number."""
    group = _resolve_group(gamma)
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
        rec = self.to_json()
        return ";".join(str(rec[k]) for k in self.CSV_HEADER.split(";"))

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


def chain_torsion(cx: ChainComplex, i: int, gamma) -> int:
    """|Tor_Z(H_i(C ⊗ Z[A_Gamma]))|.

    Equals the torsion of the cokernel of the next boundary; degrees at or
    above the top have free homology and give 1.
    """
    if i < 0:
        raise ValueError("degree out of range")
    if i >= cx.top_degree:
        return 1
    return torsion_order(cx.coker_module(i), gamma)


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


def _powers(f: LaurentPoly, group: FinAbGroup) -> np.ndarray:
    """P[c, k] with f(chi_c) = sum_k f_k z^P[c, k], z a primitive e-th root of
    unity, for the exponent matrix W of the characters and the k-th term of f."""
    exps = np.array([exp for exp, _ in f.terms], dtype=np.int64).reshape(-1, f.nvars)
    return character_exponents(group) @ (exps.T % group.exponent) % group.exponent


def _character_product(f: LaurentPoly, group: FinAbGroup, skip_trivial: bool = False) -> int:
    """|prod f(chi)| over the n characters of A, or its n = |A| - 1 nontrivial ones.

    For primes p = 1 mod e, the exponent of A, F_p has a primitive e-th root
    z and sends f(chi_c) to sum_k f_k z^(W[c] . a_k), W the exponent matrix.
    Parseval and AM-GM bound prod |f(chi)|^2 by S^n, S = ||project_poly(f)||_2^2,
    or by (1 + 1/n)^n S^n < 3 S^n without the trivial character; primes are
    added until their product M has M^2 > 4 S^n (12 S^n), in integers.  Each
    chunk of primes is one numpy pass (a table of each root's powers, a
    gather per term of f, a row-wise halving product); a pairwise CRT tree
    lifts the residues to the symmetric residue mod M, the product.
    """
    if f.nvars != group.nvars:
        raise ValueError("dimension mismatch between polynomial and group")
    e = group.exponent
    powers = _powers(f, group)[1 if skip_trivial else 0:]
    if not (n := len(powers)):  # the empty product, of the nontrivial characters of A = 0
        return 1
    need = (12 if skip_trivial else 4) * sum(c * c for c in project_poly(f, group)) ** n
    primes, M, search = [], 1, _primes_1_mod(e)
    while 2 * M.bit_length() < need.bit_length() or M * M <= need:
        if (p := next(search, None)) is None:
            raise ArithmeticError(f"too few primes p = 1 mod {e} below {_PRIME_LIMIT} for {n} characters")
        primes.append(p)
        M *= p
    roots, level = _roots_of_unity(e, primes), [(0, 1)]  # (residue, modulus): 0 mod 1 is any x
    step = max(1, _CELLS // max(n, 1 << (e - 1).bit_length()))  # ~_CELLS cells per array
    for i in range(0, len(primes), step):
        chunk = primes[i:i + step]
        p, z = (np.array(x[i:i + step], dtype=np.int64)[:, None] for x in (primes, roots))
        table = np.ones_like(p)  # table[j, m] = z_j^m mod p_j, doubled in m up to e
        while table.shape[1] < e:
            table, z = np.hstack([table, table * z % p]), z * z % p
        vals = sum((table * np.array([c % q for q in chunk])[:, None] % p)[:, powers[:, k]]
                   for k, (_, c) in enumerate(f.terms)) % p  # a sum of terms below p each
        while vals.shape[1] > 1:  # halves multiplied, an odd last column kept
            h = vals.shape[1] // 2
            vals = np.hstack([vals[:, :h] * vals[:, h:2 * h] % p, vals[:, 2 * h:]])
        level += zip(vals[:, 0].tolist(), chunk)
    while len(level) > 1:  # x = r mod m, x = s mod q to x mod mq; (0, 1) pairs an odd one out
        level = [(r + m * ((s - r) * pow(m, -1, q) % q), m * q)
                 for (r, m), (s, q) in zip(level[::2], level[1::2] + [(0, 1)])]
    r, M = level[0]
    return abs(r - M if 2 * r > M else r)


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
