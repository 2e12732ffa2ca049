"""Exact integer-matrix primitives shared across the package.

Smith normal form (plain and with unimodular transforms), canonical
row-style Hermite bases, integer kernels, fraction-free determinants, and
small helpers for arbitrary-precision bookkeeping.  Matrices are plain
nested lists of Python ints at the API boundary.

`snf_diagonal` runs in two phases.  Phase 1 eliminates on ±1 pivots over
sparse `{column: value}` rows, choosing the pivot in the shortest row that
has one (approximate Markowitz pivoting, as in Dumas, Saunders and Villard,
J. Symbolic Comput. 32, 2001); each such pivot is one invariant factor 1.
Phase 2 finishes the small dense remainder with `_diagonalize`, which runs
on numpy object arrays so row operations execute in C while coefficients
stay arbitrary precision.  `snf_with_transforms` and `kernel_basis` use the
dense path alone.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

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
    """Quotient q minimizing |a - q*b| for b > 0 (remainder in (-b/2, b/2])."""
    return (2 * a + b) // (2 * b)


def to_object_array(rows) -> np.ndarray:
    """Copy nested lists (or an object array) into a 2-D object ndarray."""
    if isinstance(rows, np.ndarray) and rows.dtype == object:
        return rows.copy()
    m = len(rows)
    n = len(rows[0]) if m else 0
    arr = np.empty((m, n), dtype=object)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError("ragged matrix")
        for j, v in enumerate(row):
            arr[i, j] = int(v)
    return arr


def _min_abs_position(arr: np.ndarray) -> tuple[int, int] | None:
    """Position of a nonzero entry of minimal absolute value, or None."""
    ri, ci = np.nonzero(arr)
    if len(ri) == 0:
        return None
    vals = np.abs(arr[ri, ci])
    k = int(np.argmin(vals))
    return int(ri[k]), int(ci[k])


def _diagonalize(A: np.ndarray, U: np.ndarray | None = None, V: np.ndarray | None = None) -> None:
    """Reduce A in place to diagonal form by unimodular row/column moves.

    Pivots are chosen as the minimal-absolute-value nonzero entry of the
    trailing block; rows and columns are cleared with nearest-multiple
    reductions, re-pivoting on remainders, which keeps coefficient growth
    close to the minor bound.  When given, U and V accumulate the row and
    column operations (U·A_in·V = A_out).
    """
    m, n = A.shape
    s = 0
    while s < min(m, n):
        pos = _min_abs_position(A[s:, s:])
        if pos is None:
            break
        r, c = pos[0] + s, pos[1] + s
        if r != s:
            A[[s, r], s:] = A[[r, s], s:]
            if U is not None:
                U[[s, r]] = U[[r, s]]
        if c != s:
            A[s:, [s, c]] = A[s:, [c, s]]
            if V is not None:
                V[:, [s, c]] = V[:, [c, s]]
        while True:
            if A[s, s] < 0:
                A[s, s:] = -A[s, s:]
                if U is not None:
                    U[s] = -U[s]
            p = A[s, s]
            # clear the column below the pivot
            col_rows = s + 1 + np.nonzero(A[s + 1 :, s])[0]
            for i in col_rows:
                q = nearest_div(A[i, s], p)
                if q:
                    A[i, s:] -= q * A[s, s:]
                    if U is not None:
                        U[i] -= q * U[s]
            rem = np.nonzero(A[s + 1 :, s])[0]
            if len(rem):
                # a remainder smaller than the pivot exists; promote it
                i = s + 1 + min(rem, key=lambda k: abs(A[s + 1 + k, s]))
                A[[s, i], s:] = A[[i, s], s:]
                if U is not None:
                    U[[s, i]] = U[[i, s]]
                continue
            # clear the row right of the pivot (column s below is zero now,
            # so these column moves only touch row s)
            dirty = False
            for j in range(s + 1, n):
                a = A[s, j]
                if a:
                    q = nearest_div(a, p)
                    r2 = a - q * p
                    A[s, j] = r2
                    if V is not None:
                        V[:, j] -= q * V[:, s]
                    if r2:
                        A[s:, [s, j]] = A[s:, [j, s]]
                        if V is not None:
                            V[:, [s, j]] = V[:, [j, s]]
                        dirty = True
                        break
            if not dirty:
                break
        s += 1


def _repair_chain(A: np.ndarray, U: np.ndarray | None = None, V: np.ndarray | None = None) -> None:
    """Turn the diagonal left by `_diagonalize` into a divisibility chain, in place.

    The nonzero entries lead and are positive.  A pair (a, b) with b mod a
    != 0 becomes (g, a*b/g), g = gcd(a, b) = x*a + y*b, by the row move
    [[x, y], [-b/g, a/g]] and the column move [[1, -y*b/g], [1, x*a/g]];
    both have determinant 1, and U and V record them as `_diagonalize` does.
    """
    k = 0
    while k < min(A.shape) and A[k, k]:
        k += 1
    for i in range(k):
        for j in range(i + 1, k):
            a, b = A[i, i], A[j, j]
            if b % a:
                x, y, g = xgcd(a, b)
                A[i, i], A[j, j] = g, a // g * b
                if U is not None:
                    ui, uj = U[i], U[j]
                    U[i], U[j] = x * ui + y * uj, a // g * uj - b // g * ui
                if V is not None:
                    vi, vj = V[:, i], V[:, j]
                    V[:, i], V[:, j] = vi + vj, x * (a // g) * vj - y * (b // g) * vi


def _sparse_rows(mat) -> tuple[list[dict[int, int]], int]:
    """Rows of an integer matrix as {column: nonzero entry} dicts, and the width."""
    n = len(mat[0]) if len(mat) else 0
    rows = []
    for row in mat:
        if len(row) != n:
            raise ValueError("ragged matrix")
        rows.append({j: int(v) for j, v in enumerate(row) if v})
    return rows, n


def _eliminate_unit_pivots(rows: list[dict[int, int]]) -> int:
    """Phase 1 of `snf_diagonal`: sparse elimination on ±1 pivots, in place.

    Each step takes a ±1 entry in the shortest live row that has one (the
    search stops at a row of length <= 2: approximate Markowitz pivoting),
    clears its column with row operations, and deletes the pivot row and
    column.  A unit pivot clears its own row by column operations that touch
    nothing else, so each step contributes one invariant factor 1.  Returns
    the number of steps; the rows left nonempty hold the remaining block.
    """
    cols: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        for j in r:
            cols.setdefault(j, set()).add(i)
    live = {i for i, r in enumerate(rows) if r}
    ones = 0
    while True:
        pivot, best = None, 0
        for i in live:
            r = rows[i]
            if pivot is not None and len(r) >= best:
                continue
            for j, v in r.items():
                if v == 1 or v == -1:
                    pivot, best = (i, j), len(r)
                    break
            if pivot is not None and best <= 2:
                break
        if pivot is None:
            return ones
        p, c = pivot
        prow = rows[p]
        u = prow[c]
        for i in cols.pop(c):
            if i == p:
                continue
            r = rows[i]
            f = r[c] * u
            for j, v in prow.items():
                x = r.get(j, 0) - f * v
                if x:
                    if j not in r:
                        cols[j].add(i)
                    r[j] = x
                else:
                    del r[j]
                    if j != c:
                        cols[j].discard(i)
            if not r:
                live.discard(i)
        for j in prow:
            if j != c:
                cols[j].discard(p)
        rows[p] = {}
        live.discard(p)
        ones += 1


def snf_diagonal(mat) -> list[int]:
    """Invariant factors of an integer matrix, length min(m, n).

    Nonzero entries form a divisibility chain d1 | d2 | ...; zeros trail.
    Two phases: sparse elimination on ±1 pivots (`_eliminate_unit_pivots`),
    then `_diagonalize` on the dense block of the rows and columns that are
    still nonzero.
    """
    rows, n = _sparse_rows(mat)
    k = min(len(rows), n)
    if k == 0:
        return []
    ones = _eliminate_unit_pivots(rows)
    tail = [r for r in rows if r]
    cols = sorted({j for r in tail for j in r})
    A = to_object_array([[r.get(j, 0) for j in cols] for r in tail])
    _diagonalize(A)
    _repair_chain(A)
    diag = [1] * ones + [A[i, i] for i in range(min(A.shape))]
    return diag + [0] * (k - len(diag))


def snf_with_transforms(mat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (D, U, V) with U·mat·V = D diagonal, U and V unimodular.

    D's diagonal is in divisibility-chain order.  Intended for small
    matrices (transform tracking doubles the work).
    """
    A = to_object_array(mat)
    m, n = A.shape
    U = np.zeros((m, m), dtype=object)
    V = np.zeros((n, n), dtype=object)
    for i in range(m):
        U[i, i] = 1
    for j in range(n):
        V[j, j] = 1
    _diagonalize(A, U, V)
    _repair_chain(A, U, V)
    return A, U, V


def kernel_basis(mat) -> list[list[int]]:
    """Basis of {x : mat @ x = 0} as a list of column vectors (saturated)."""
    A = to_object_array(mat)
    m, n = A.shape
    if n == 0:
        return []
    if m == 0:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    D, _, V = snf_with_transforms(A)
    k = min(m, n)
    cols = [j for j in range(n) if j >= k or D[j, j] == 0]
    return [[int(V[i, j]) for i in range(n)] for j in cols]


def bareiss_det(mat) -> int:
    """Exact determinant via fraction-free elimination."""
    rows = [list(map(int, r)) for r in mat]
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k]:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = rows[k][k]
        for i in range(k + 1, n):
            rik = rows[i][k]
            ri = rows[i]
            rk = rows[k]
            for j in range(k + 1, n):
                ri[j] = (pk * ri[j] - rik * rk[j]) // prev
            ri[k] = 0
        prev = pk
    return sign * rows[n - 1][n - 1]


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


def lattice_index(vectors, ambient: int) -> int:
    """Index of the spanned lattice in Z^ambient (0 when not full rank)."""
    basis = hnf_rows(vectors)
    if len(basis) != ambient:
        return 0
    idx = 1
    for row in basis:
        j = next(i for i, x in enumerate(row) if x)
        idx *= row[j]
    return idx


def hnf_coordinates(basis_rows, target) -> list[int] | None:
    """Coordinates of `target` in a row-style HNF basis, or None.

    Back-substitution along the pivot columns; integer coordinates exist iff
    the vector lies in the lattice.
    """
    v = [int(x) for x in target]
    coords = []
    for row in basis_rows:
        j = next(i for i, x in enumerate(row) if x)
        q, r = divmod(v[j], row[j])
        if r:
            return None
        if q:
            v = [x - q * y for x, y in zip(v, row)]
        coords.append(q)
    if any(v):
        return None
    return coords


def lattice_contains(vectors, target) -> bool:
    """Whether `target` lies in the lattice spanned by `vectors`."""
    return hnf_coordinates(hnf_rows(vectors), target) is not None


def solve_rational(A, b) -> list[Fraction] | None:
    """Solve A x = b exactly over Q; None when inconsistent.

    A is m x n with full column rank (independent columns); a unique
    solution is returned if one exists.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    rows = [[Fraction(x) for x in r] + [Fraction(bx)] for r, bx in zip(A, b)]
    piv_cols: list[int] = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    if len(piv_cols) < n:
        raise ValueError("matrix does not have full column rank")
    for i in range(r, m):
        if rows[i][n]:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(piv_cols):
        x[c] = rows[i][n]
    return x


def solve_integer(A, b) -> list[int] | None:
    """Integer solution of A x = b when columns of A are independent."""
    x = solve_rational(A, b)
    if x is None or any(v.denominator != 1 for v in x):
        return None
    return [int(v) for v in x]


def invert_unimodular(U) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix."""
    n = len(U)
    cols = []
    for j in range(n):
        e = [1 if i == j else 0 for i in range(n)]
        x = solve_integer([list(map(int, row)) for row in U], e)
        if x is None:
            raise ValueError("matrix is not unimodular")
        cols.append(x)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def matmul(A, B) -> list[list[int]]:
    """Plain integer matrix product on nested lists."""
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
