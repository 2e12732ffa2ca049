"""Finitely generated modules over Z[t1^±1,...,tn^±1] via presentation matrices.

A presentation matrix has m1 rows (relations) and m0 columns (generators),
presenting R^m1 -> R^m0 -> M -> 0.  The j-th Alexander polynomial is the
GCD of all (m0-j)-minors, with the degenerate conventions: nothing left to
take (m0-j <= 0) gives 1, minors larger than the matrix (m0-j > m1) give 0.

Ranks and minors come from `intlinalg.eliminate`, the same fraction-free
elimination that computes integer determinants: over R its Bareiss
divisions are exact `LaurentPoly` quotients.

`reduce_presentation` shrinks a presentation by invertible row and column
moves, so the module, its Fitting ideals (Eisenbud, Commutative Algebra,
20.2) and every M ⊗ Z[A] stay the same; `alexander` never reduces, so the
two check each other.  Its unit pivots are `intlinalg.eliminate_units`, the
same sparse Tietze loop that runs phase 1 of SNF over Z.

Also here: Fox calculus for group presentations, the chain complex of the
universal abelian cover of the associated 2-complex, and the block
presentation of the branched-cover module.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .intlinalg import eliminate, eliminate_units, matmul
from .laurent import (
    LaurentPoly,
    div_exact,
    gcd_list,
    parse_poly,
    poly_from_json,
    poly_to_json,
)

MINOR_GUARD = 8


def _as_poly(entry, nvars: int) -> LaurentPoly:
    if isinstance(entry, LaurentPoly):
        if entry.nvars != nvars:
            raise ValueError("matrix entries disagree on the number of variables")
        return entry
    return LaurentPoly.constant(nvars, int(entry))


@dataclass(frozen=True)
class PresentedModule:
    """An R-module given by an m1 x m0 presentation matrix over R.

    `m0` (the generator count) may be omitted whenever the matrix has at
    least one row; a relation-free presentation needs it spelled out, as in
    the free module R^r = PresentedModule(n, (), r).
    """

    nvars: int
    matrix: tuple[tuple[LaurentPoly, ...], ...]
    m0: int = -1

    def __post_init__(self):
        rows = tuple(
            tuple(_as_poly(e, self.nvars) for e in row) for row in self.matrix
        )
        object.__setattr__(self, "matrix", rows)
        if rows:
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise ValueError("ragged presentation matrix")
            width = widths.pop()
            if self.m0 == -1:
                object.__setattr__(self, "m0", width)
            elif self.m0 != width:
                raise ValueError("m0 disagrees with the matrix width")
        elif self.m0 < 0:
            raise ValueError("a relation-free presentation needs an explicit m0")

    @property
    def m1(self) -> int:
        return len(self.matrix)

    @cached_property
    def reduced(self) -> "PresentedModule":
        """`reduce_presentation(self)`, computed once per instance."""
        return reduce_presentation(self)

    @classmethod
    def quotient_by_ideal(cls, nvars: int, gens: Sequence[LaurentPoly]) -> "PresentedModule":
        """R/(f1,...,fl): one generator, one relation row per ideal generator."""
        return cls(nvars, tuple((_as_poly(g, nvars),) for g in gens), 1)

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "m0": self.m0,
            "matrix": [[poly_to_json(e) for e in row] for row in self.matrix],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PresentedModule":
        nvars, matrix, m0 = data["nvars"], data["matrix"], data.get("m0", -1)
        if not (type(nvars) is int and isinstance(matrix, list)
                and all(isinstance(row, list) for row in matrix)):
            raise ValueError("an inline module needs an integer 'nvars' and a list of rows")
        if type(m0) is not int:
            raise ValueError(f"'m0' must be an integer, not {m0!r}")
        rows = tuple(
            tuple(poly_from_json(e, nvars) for e in row) for row in matrix
        )
        return cls(nvars, rows, m0)


def reduce_presentation(mod: PresentedModule) -> PresentedModule:
    """An isomorphic, usually smaller presentation of the same module.

    1. Unit pivots (Tietze moves): `intlinalg.eliminate_units` on sparse
       rows, with the pivot rule it uses over Z: the first unit ±t^k in the
       shortest row that has one.  Each pivot u clears its column with row
       moves by entry * u^-1, then its row and column go.
    2. Singleton columns: if e is the only nonzero entry of its column, in
       row i, zero each other entry a of row i with e | a exactly (the
       column move col_j -= (a / e) * col_e changes row i only).
    3. Zero rows go; zero columns stay, as free generators.
    """
    sparse = [{j: e for j, e in enumerate(r) if e} for r in mod.matrix]
    pivots = set(eliminate_units(sparse, lambda e: e ** -1 if e.is_unit() else None))
    keep = [j for j in range(mod.m0) if j not in pivots]
    zero = LaurentPoly.zero(mod.nvars)
    rows = [[r.get(j, zero) for j in keep] for r in sparse if r]
    m0 = len(keep)
    for c in range(m0):
        live = [r for r in rows if r[c]]
        if len(live) == 1:
            row = live[0]
            for j, a in enumerate(row):
                if j != c and a and div_exact(a, row[c]) is not None:
                    row[j] = zero
    return PresentedModule(mod.nvars, tuple(tuple(r) for r in rows if any(r)), m0)


def rank(mod: PresentedModule) -> int:
    """Rank of M over the fraction field: m0 minus the matrix rank.

    Exact fraction-free elimination; no probabilistic evaluation.
    """
    return mod.m0 - eliminate(mod.matrix, mod.m0)[0]


def alexander(mod: PresentedModule, j: int) -> LaurentPoly:
    """The j-th Alexander polynomial: GCD of the (m0-j)-minors, normalized."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    k = mod.m0 - j
    if k <= 0:
        return LaurentPoly.one(mod.nvars)
    if k > mod.m1:
        return LaurentPoly.zero(mod.nvars)
    if mod.m0 > MINOR_GUARD or mod.m1 > MINOR_GUARD:
        raise ValueError(
            f"minor enumeration guarded to presentations of size <= {MINOR_GUARD}"
        )
    acc = LaurentPoly.zero(mod.nvars)
    for rows_idx in itertools.combinations(range(mod.m1), k):
        for cols_idx in itertools.combinations(range(mod.m0), k):
            sub = [[mod.matrix[i][c] for c in cols_idx] for i in rows_idx]
            r, pivot = eliminate(sub, k)
            minor = pivot if r == k else LaurentPoly.zero(mod.nvars)
            acc = gcd_list([acc, minor], mod.nvars)
            if acc.is_one():
                return acc
    return acc


def all_alexander(mod: PresentedModule) -> list[LaurentPoly]:
    """Delta_j for j = 0..m0 (the last one is always 1)."""
    return [alexander(mod, j) for j in range(mod.m0 + 1)]


def delta(mod: PresentedModule) -> LaurentPoly:
    """The first non-vanishing Alexander polynomial Delta(M) = Delta_rank(M)."""
    r = rank(mod)
    d = alexander(mod, r)
    assert not d.is_zero()
    return d


# ---------------------------------------------------------------------------
# Group presentations and Fox calculus
# ---------------------------------------------------------------------------


def _free_reduce(word: Sequence[int]) -> tuple[int, ...]:
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(int(letter))
    return tuple(out)


@dataclass(frozen=True)
class GroupPresentation:
    """Generators, relator words, and the abelianization map rho.

    Words are sequences of nonzero signed 1-based generator indices, stored
    freely reduced.  rho sends each generator to a unit monomial in R.
    """

    ngens: int
    relators: tuple[tuple[int, ...], ...]
    rho: tuple[LaurentPoly, ...]

    def __post_init__(self):
        if len(self.rho) != self.ngens:
            raise ValueError("rho must assign an image to every generator")
        nv = {p.nvars for p in self.rho}
        if len(nv) != 1:
            raise ValueError("rho images disagree on the number of variables")
        for p in self.rho:
            if not p.is_unit():
                raise ValueError("rho images must be unit monomials")
        object.__setattr__(
            self, "relators", tuple(_free_reduce(w) for w in self.relators)
        )
        for w in self.relators:
            for letter in w:
                if letter == 0 or abs(letter) > self.ngens:
                    raise ValueError(f"letter {letter} out of range")

    @property
    def nvars(self) -> int:
        return self.rho[0].nvars


def fox_derivative(word: Sequence[int], gen: int, pres: GroupPresentation) -> LaurentPoly:
    """rho-image of the free derivative d(word)/d(x_gen), gen 0-based.

    Satisfies sum_x d(w)/dx * (rho(x) - 1) = rho(w) - 1.
    """
    word = _free_reduce(word)
    if any(letter == 0 or abs(letter) > pres.ngens for letter in word):
        raise ValueError("malformed word")
    nv = pres.nvars
    total = LaurentPoly.zero(nv)
    prefix = LaurentPoly.one(nv)
    for letter in word:
        idx = abs(letter) - 1
        img = pres.rho[idx]
        if idx == gen:
            if letter > 0:
                total = total + prefix
            else:
                total = total - prefix * img ** -1
        prefix = prefix * (img if letter > 0 else img ** -1)
    return total


@dataclass(frozen=True)
class ChainComplex:
    """Free chain complex over R: diffs[i] is the boundary C_{i+1} -> C_i.

    Matrices use the row convention (rows index the source basis), so the
    composite of consecutive boundaries is the product diffs[i+1]*diffs[i],
    which must vanish.  `ranks` lists the free ranks of C_0..C_top.
    """

    nvars: int
    diffs: tuple[tuple[tuple[LaurentPoly, ...], ...], ...]
    ranks: tuple[int, ...]

    def __post_init__(self):
        diffs = tuple(
            tuple(tuple(_as_poly(e, self.nvars) for e in row) for row in mat)
            for mat in self.diffs
        )
        object.__setattr__(self, "diffs", diffs)
        if len(self.ranks) != len(diffs) + 1:
            raise ValueError("ranks must cover degrees 0..top")
        for i, mat in enumerate(diffs):
            if len(mat) != self.ranks[i + 1]:
                raise ValueError(f"boundary {i + 1} has wrong row count")
            if mat and len(mat[0]) != self.ranks[i]:
                raise ValueError(f"boundary {i + 1} has wrong column count")
        for up, down in zip(diffs[1:], diffs):
            if any(any(row) for row in matmul(up, down)):
                raise ValueError("boundary composition is nonzero")


def alexander_complex(pres: GroupPresentation) -> ChainComplex:
    """Cellular complex of the universal abelian cover of the presentation
    2-complex: 0 -> R^m --d2--> R^(m+1) --d1--> R -> 0.

    d1 has rows (1 - rho(a_i)); d2 is the Fox Jacobian of the relators, and
    the composite vanishes by the fundamental identity of Fox calculus.
    """
    nv = pres.nvars
    one = LaurentPoly.one(nv)
    d1 = tuple((one - pres.rho[i],) for i in range(pres.ngens))
    d2 = tuple(
        tuple(fox_derivative(w, g, pres) for g in range(pres.ngens))
        for w in pres.relators
    )
    return ChainComplex(nv, (d1, d2), (1, pres.ngens, len(pres.relators)))


def alexander_module(pres: GroupPresentation) -> PresentedModule:
    """coker of the Fox Jacobian (the module presented by the relators)."""
    cx = alexander_complex(pres)
    return PresentedModule(pres.nvars, cx.diffs[1], pres.ngens)


def branched_module(d2: PresentedModule, n: int) -> PresentedModule:
    """Block presentation [[d2, 0], [I, T]] of the branched-cover module.

    d2 is the module of the m x (m+1) Fox Jacobian (no rows for the unknot
    spine); T = diag(1 - t_i) over the n link-component variables.  The
    Z-torsion of this module over Z[A_Gamma] computes the branched-cover
    homology torsion.
    """
    nvars, rows, m0 = d2.nvars, d2.matrix, d2.m0
    m = len(rows)
    if nvars != n:
        raise ValueError("number of variables must equal the number of link components")
    if m0 != m + 1:
        raise ValueError(f"d2 must have shape m x (m+1), got {m} x {m0}")
    if m + 1 < n:
        raise ValueError("need at least n generators (m+1 >= n)")
    zero = LaurentPoly.zero(nvars)
    one = LaurentPoly.one(nvars)
    out = []
    for r in rows:
        out.append(tuple(r) + (zero,) * n)
    for i in range(n):
        left = [zero] * (m + 1)
        left[i] = one
        right = [zero] * n
        right[i] = one - LaurentPoly.variable(i, nvars)
        out.append(tuple(left) + tuple(right))
    return PresentedModule(nvars, tuple(out), m0 + n)


# ---------------------------------------------------------------------------
# Presentation text format
# ---------------------------------------------------------------------------

_WORD_TOKEN = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(-?\d+))?")


def parse_presentation(text: str) -> GroupPresentation:
    """Parse the presentation file format:

        gens: x y
        rho: x -> t1, y -> t1
        rel: x y x y^-1 x^-1 y^-1

    One relator per `rel:` line; rho images are unit monomials, and `#`
    starts a comment.
    """
    gens: list[str] = []
    rel_lines: list[str] = []
    rho_raw: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("gens:"):
            gens = line[len("gens:"):].split()
        elif line.startswith("rho:"):
            for part in line[len("rho:"):].split(","):
                part = part.strip()
                if not part:
                    continue
                if "->" not in part:
                    raise ValueError(f"line {lineno}: rho entries look like 'x -> t1'")
                name, img = part.split("->", 1)
                rho_raw[name.strip()] = img.strip()
        elif line.startswith("rel:"):
            rel_lines.append(line[len("rel:"):].strip())
        else:
            raise ValueError(f"line {lineno}: unknown directive {line!r}")
    if not gens:
        raise ValueError("missing 'gens:' line")
    if set(rho_raw) != set(gens):
        raise ValueError("rho must be defined exactly on the generators")
    nvars = 1
    for img in rho_raw.values():
        for m in re.finditer(r"t(\d+)", img):
            nvars = max(nvars, int(m.group(1)))
    rho_map = {name: parse_poly(rho_raw[name], nvars) for name in gens}
    index = {name: i + 1 for i, name in enumerate(gens)}
    relators = []
    for line in rel_lines:
        word: list[int] = []
        pos = 0
        for m in _WORD_TOKEN.finditer(line):
            if line[pos:m.start()].strip(" *"):
                raise ValueError(f"cannot parse relator {line!r}")
            pos = m.end()
            name, exp = m.group(1), int(m.group(2) or 1)
            if name not in index:
                raise ValueError(f"unknown generator {name!r} in relator")
            letter = index[name]
            step = letter if exp > 0 else -letter
            word.extend([step] * abs(exp))
        if line[pos:].strip(" *"):
            raise ValueError(f"cannot parse relator {line!r}")
        relators.append(tuple(word))
    return GroupPresentation(
        len(gens), tuple(relators), tuple(rho_map[g] for g in gens)
    )
