"""Exact integer-matrix primitives shared across the package.

Smith normal form (plain, and with the row transform that quotient maps
need), canonical row-style Hermite bases, and small helpers for
arbitrary-precision bookkeeping.  Matrices are plain nested lists of Python
ints at the API boundary.  Hermite form is the one lattice normal form:
integer kernels come from `hnf_rows` here, and `lattices.Subgroup`, the one
lattice type, reads its basis, rank and index off it.

Two eliminations run unchanged over Z and over R = Z[t1^±1, ..., tn^±1].
`eliminate` takes fraction-free Bareiss steps (`presmod` takes ranks and
minors of presentations with it); determinants are its last pivot, so no
rational arithmetic is needed anywhere.  `eliminate_units` makes Tietze
moves on unit pivots over sparse `{column: entry}` rows, with the pivot in
the first row of the shortest length bucket that has one, so no step scans
every row (approximate Markowitz pivoting, as in Dumas, Saunders and
Villard, J. Symbolic Comput. 32, 2001): phase 1 of SNF over Z, and the unit
moves of `presmod.reduce_presentation` over R.

`snf_diagonal` runs in two phases.  Phase 1 is `eliminate_units` on ±1
pivots, each one an invariant factor 1.  Phase 2 finishes the small dense
remainder with `_diagonalize` on nested lists: one list comprehension per
row move, one C-level `min` per row searched for a pivot, and no row
transform kept.  `snf_with_transforms` uses the dense path alone, with
its transform.
"""

from __future__ import annotations

import math
from itertools import compress

_LN2 = math.log(2)


def int_log(n: int) -> float:
    """Natural log of a positive integer, safe for values beyond float range."""
    if n <= 0:
        raise ValueError("int_log requires a positive integer")
    shift = n.bit_length() - 64
    if shift <= 0:
        return math.log(n)
    return math.log(n >> shift) + shift * _LN2


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b = g = gcd(a, b), g >= 0."""
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def nearest_div(a: int, b: int) -> int:
    """Quotient q minimizing |a - q*b| for b > 0 (remainder in [-b/2, b/2))."""
    return (2 * a + b) // (2 * b)


def _diagonalize(A: list[list[int]], U: list[list[int]] | None = None) -> None:
    """Reduce A in place to diagonal form by unimodular row/column moves.

    Pivots are chosen as the first entry of least absolute value, in
    row-major order, of the trailing block.  Its column, then its row, is
    cleared by one rule: reduce every entry by the nearest multiple of the
    pivot and, if remainders are left, promote the least of them to pivot
    and repeat; entries then stay within the block's Hadamard bound on
    every input tested (Havas and Majewski, J. Symbolic Comput. 24, 1997,
    trace coefficient growth to these rules).  Off the trailing block only
    the diagonal is nonzero, so rows are swapped and searched whole.  When
    given, U accumulates the row operations (U·A_in = A_out·W for some
    unimodular W).  Each promotion strictly lowers |pivot|, so the loop
    ends on every input.
    """
    m, n = len(A), len(A[0]) if A else 0
    track = U is not None
    for s in range(min(m, n)):
        best, r = math.inf, s
        for i in range(s, m):
            if (least := min(map(abs, filter(None, A[i])), default=math.inf)) < best:
                best, r = least, i
                if best == 1:
                    break
        if best == math.inf:
            break
        c = list(map(abs, A[r])).index(best)
        A[s], A[r] = A[r], A[s]
        if track:
            U[s], U[r] = U[r], U[s]
        for row in A[s:]:
            row[s], row[c] = row[c], row[s]
        while True:
            if A[s][s] < 0:
                A[s] = [-x for x in A[s]]
                if track:
                    U[s] = [-x for x in U[s]]
            piv = A[s]
            p, tail = piv[s], piv[s:]
            # clear the column below the pivot, noting the first least remainder
            least, k = p, 0
            for i in range(s + 1, m):
                row = A[i]
                if row[s] and (q := nearest_div(row[s], p)):
                    row[s:] = [x - q * y for x, y in zip(row[s:], tail)]
                    if track:
                        U[i] = [x - q * y for x, y in zip(U[i], U[s])]
                if 0 < abs(row[s]) < least:
                    least, k = abs(row[s]), i
            if k:
                # a remainder smaller than the pivot exists; promote it
                A[s], A[k] = A[k], A[s]
                if track:
                    U[s], U[k] = U[k], U[s]
                continue
            # clear the row by the same rule (column s below is zero now,
            # so these column moves only touch row s); the residue in
            # [-p/2, p/2) is x - nearest_div(x, p) * p
            h = p // 2
            piv[s + 1:] = [(x + h) % p - h for x in piv[s + 1:]]
            least = min(map(abs, filter(None, piv[s + 1:])), default=0)
            if not least:
                break
            j = list(map(abs, piv)).index(least, s + 1)
            for row in A[s:]:
                row[s], row[j] = row[j], row[s]


def _repair_chain(d: list[int], U: list[list[int]] | None = None) -> None:
    """Turn the diagonal d left by `_diagonalize` into a divisibility chain, in place.

    The nonzero entries lead and are positive.  A pair (a, b) with b mod a
    != 0 becomes (g, a*b/g), g = gcd(a, b) = x*a + y*b, by the row move
    [[x, y], [-b/g, a/g]] and a column move of determinant 1; U records
    the row move as `_diagonalize` does.
    """
    k = len(d) - d.count(0)
    for i in range(k):
        for j in range(i + 1, k):
            a, b = d[i], d[j]
            if b % a:
                x, y, g = xgcd(a, b)
                d[i], d[j] = g, a // g * b
                if U is not None:
                    U[i], U[j] = ([x * u + y * v for u, v in zip(U[i], U[j])],
                                  [a // g * v - b // g * u for u, v in zip(U[i], U[j])])


def _sparse_rows(mat) -> tuple[list[dict[int, int]], int]:
    """Rows of an integer matrix as {column: nonzero entry} dicts, and the width."""
    n = len(mat[0]) if len(mat) else 0
    rows = []
    for row in mat:
        if len(row) != n:
            raise ValueError("ragged matrix")
        rows.append({j: int(row[j]) for j in compress(range(n), row)})
    return rows, n


def eliminate_units(rows: list[dict], inverse) -> list[int]:
    """Sparse elimination on unit pivots over Z or R = Z[t^±], in place.

    `rows` are {column: nonzero entry} dicts and `inverse(e)` is e^-1 when
    e is a unit, else None.  Rows wait in insertion-ordered buckets by
    length; a row move that changes a row's length moves it to the end of
    its new bucket, and a row found to hold no unit leaves until a row move
    changes it.  Each step takes the first unit in the first row of the
    shortest bucket that has one (approximate Markowitz pivoting), clears
    its column with row moves by entry·u^-1, and deletes the pivot row and
    column.  A unit pivot clears its own row by column moves that touch
    nothing else, so the cokernel keeps its isomorphism type.  Returns the
    pivot columns in order; the rows left nonempty hold the remaining block.
    """
    cols: dict[int, set[int]] = {}
    queue: dict[int, dict[int, None]] = {}  # length -> rows, insertion-ordered
    for i, r in enumerate(rows):
        for j in r:
            cols.setdefault(j, set()).add(i)
        if r:
            queue.setdefault(len(r), {})[i] = None
    pivots = []
    while True:
        pivot = None
        while queue and pivot is None:
            n = min(queue)
            bucket = queue[n]
            if not bucket:
                del queue[n]
                continue
            i = next(iter(bucket))
            for j, v in rows[i].items():
                if (u := inverse(v)) is not None:
                    pivot = i, j, u
                    break
            else:
                del bucket[i]
        if pivot is None:
            return pivots
        p, c, u = pivot
        prow = rows[p]
        del queue[len(prow)][p]
        rest = [(j, v, cols[j]) for j, v in prow.items() if j != c]
        for i in cols.pop(c):
            if i == p:
                continue
            r = rows[i]
            n = len(r)
            f = r.pop(c) * u
            for j, v, col in rest:
                if j in r:
                    if x := r[j] - f * v:
                        r[j] = x
                    else:
                        del r[j]
                        col.discard(i)
                else:
                    r[j] = -f * v
                    col.add(i)
            bucket = queue.get(n, {})
            if len(r) != n or i not in bucket:
                bucket.pop(i, None)
                if r:
                    queue.setdefault(len(r), {})[i] = None
        for _, _, col in rest:
            col.discard(p)
        rows[p] = {}
        pivots.append(c)


def _int_unit_inverse(v: int) -> int | None:
    """The inverse of v in Z: ±1 are their own, nothing else is a unit."""
    return v if v == 1 or v == -1 else None


def snf_diagonal(mat) -> list[int]:
    """Invariant factors of an integer matrix, length min(m, n).

    Nonzero entries form a divisibility chain d1 | d2 | ...; zeros trail.
    Two phases: sparse elimination on ±1 pivots (`eliminate_units`), then
    `_diagonalize` on the dense block of the rows and columns that are still
    nonzero.
    """
    rows, n = _sparse_rows(mat)
    k = min(len(rows), n)
    if k == 0:
        return []
    ones = len(eliminate_units(rows, _int_unit_inverse))
    tail = [r for r in rows if r]
    cols = sorted({j for r in tail for j in r})
    A = [[r.get(j, 0) for j in cols] for r in tail]
    _diagonalize(A)
    diag = [A[i][i] for i in range(min(len(A), len(cols)))]
    _repair_chain(diag)
    diag = [1] * ones + diag
    return diag + [0] * (k - len(diag))


def snf_with_transforms(mat) -> tuple[list[list[int]], list[list[int]]]:
    """(D, U): D diagonal with the invariant factors of mat as a divisibility
    chain, U unimodular, and row i of U·mat d_i times an integer row (zero
    past the rank), so v -> (U·v mod d_i) maps Z^m onto Z^m / mat·Z^n.
    Dense: intended for small matrices."""
    A = [[int(v) for v in row] for row in mat]
    m, n = len(A), len(A[0]) if A else 0
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    _diagonalize(A, U)
    diag = [A[i][i] for i in range(min(m, n))]
    _repair_chain(diag, U)
    for i, d in enumerate(diag):
        A[i][i] = d
    return A, U


def kernel_basis(mat, n: int) -> list[list[int]]:
    """Saturated basis of {x in Z^n : mat @ x = 0} in canonical Hermite form,
    for a matrix of n columns (all of Z^n when mat has no rows): the Hermite
    rows of [matᵀ | I] whose first block is zero (Cohen, A Course in
    Computational Algebraic Number Theory, 2.4.3)."""
    if any(len(r) != n for r in mat):
        raise ValueError(f"kernel_basis needs rows of {n} entries")
    m = len(mat)
    rows = [[r[j] for r in mat] + [int(i == j) for i in range(n)] for j in range(n)]
    return [r[m:] for r in hnf_rows(rows) if not any(r[:m])]


def eliminate(rows, ncols: int):
    """Fraction-free (Bareiss) elimination over Z or R = Z[t^±], on a copy.

    Returns the rank and the last pivot, signed by the row swaps.  For a
    k x k matrix the determinant is that pivot when the rank is k, else 0.
    Entries need only ring arithmetic, truthiness for zero and an exact
    `//`: each pivot divides the next step's 2 x 2 minors (Bareiss, Math.
    Comp. 22, 1968), so `int` and `LaurentPoly` run the same loop.
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    sign, prev, row = 1, 1, 0
    for col in range(ncols):
        if row == m:
            break
        piv = next((i for i in range(row, m) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != row:
            rows[row], rows[piv] = rows[piv], rows[row]
            sign = -sign
        pk, rk = rows[row][col], rows[row]
        for ri in rows[row + 1:]:
            rik = ri[col]
            for j in range(col + 1, ncols):
                ri[j] = (pk * ri[j] - rik * rk[j]) // prev
        prev = pk
        row += 1
    return row, -prev if sign < 0 else prev


def bareiss_det(mat) -> int:
    """Exact determinant of a square integer matrix by `eliminate`."""
    rows = [list(map(int, r)) for r in mat]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    rank, pivot = eliminate(rows, n)
    return pivot if rank == n else 0


def hnf_rows(vectors) -> list[list[int]]:
    """Canonical row-style Hermite basis of the lattice spanned by `vectors`.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), rows are ordered by pivot column.  Two generating sets span
    the same lattice iff their bases are identical.
    """
    pivot_rows: dict[int, list[int]] = {}
    width = None
    for vec in vectors:
        v = [int(x) for x in vec]
        if width is None:
            width = len(v)
        elif len(v) != width:
            raise ValueError("ragged generating set")
        while True:
            j = next((i for i, x in enumerate(v) if x), None)
            if j is None:
                break
            if j not in pivot_rows:
                if v[j] < 0:
                    v = [-x for x in v]
                pivot_rows[j] = v
                break
            row = pivot_rows[j]
            a, b = row[j], v[j]
            if b % a == 0:
                q = b // a
                v = [x - q * y for x, y in zip(v, row)]
            else:
                x, y, g = xgcd(a, b)
                new_row = [x * p + y * q2 for p, q2 in zip(row, v)]
                v = [-(b // g) * p + (a // g) * q2 for p, q2 in zip(row, v)]
                pivot_rows[j] = new_row
    pivots = sorted(pivot_rows)
    # back-reduce entries above pivots
    for idx, j in enumerate(pivots):
        base = pivot_rows[j]
        p = base[j]
        for j2 in pivots[:idx]:
            upper = pivot_rows[j2]
            q = upper[j] // p
            if q:
                pivot_rows[j2] = [x - q * y for x, y in zip(upper, base)]
    return [pivot_rows[j] for j in pivots]


def matmul(A, B) -> list[list]:
    """Plain matrix product on nested lists, over any ring."""
    if not A or not B:
        return []
    n_inner = len(B)
    if any(len(r) != n_inner for r in A):
        raise ValueError("shape mismatch in matmul")
    cols = len(B[0])
    return [
        [sum(r[k] * B[k][j] for k in range(n_inner)) for j in range(cols)]
        for r in A
    ]
