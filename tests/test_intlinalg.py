import hashlib
import itertools
import math
import random

import pytest

from conftest import planted_presentations, random_laurent
from lemmas import hnf_coordinates
from torgrowth import intlinalg
from torgrowth.intlinalg import (
    _int_unit_inverse,
    bareiss_det,
    eliminate_units,
    hnf_rows,
    int_log,
    kernel_basis,
    matmul,
    nearest_div,
    snf_diagonal,
    snf_with_transforms,
    xgcd,
)
from torgrowth.laurent import LaurentPoly


def brute_invariant_factors(M):
    """d1*...*dk equals the gcd of all k x k minors."""
    m, n = len(M), len(M[0])
    facs = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rs in itertools.combinations(range(m), k):
            for cs in itertools.combinations(range(n), k):
                g = math.gcd(g, bareiss_det([[M[i][j] for j in cs] for i in rs]))
        if g == 0:
            facs.extend([0] * (min(m, n) - len(facs)))
            break
        facs.append(g // prev)
        prev = g
    return facs


def test_snf_examples():
    assert snf_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert snf_diagonal([[0, 0], [0, 0]]) == [0, 0]
    assert snf_diagonal([[2, 4], [6, 8]]) == [2, 4]
    assert snf_diagonal([[1]]) == [1]


def test_snf_against_minor_gcds():
    rng = random.Random(10)
    for _ in range(250):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        got = snf_diagonal(M)
        assert got == brute_invariant_factors(M)
        nz = [d for d in got if d]
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0


def random_sparse_matrix(rng: random.Random) -> list[list[int]]:
    """Mostly ±1 entries, with zero rows and columns and dependent rows."""
    m, n = rng.randint(1, 40), rng.randint(1, 60)
    if rng.random() < 0.5:
        m, n = n, m
    density = rng.choice([0.05, 0.1, 0.2, 0.5])
    M = [
        [rng.choice([1, -1, 1, -1, 2, -3, 5]) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(m)
    ]
    for _ in range(rng.randint(0, 3)):
        M[rng.randrange(m)] = [0] * n
    for _ in range(rng.randint(0, 3)):
        j = rng.randrange(n)
        for row in M:
            row[j] = 0
    for _ in range(rng.randint(0, m // 2)):
        a, b = rng.randrange(m), rng.randrange(m)
        c = rng.choice([1, -1, 2])
        M[rng.randrange(m)] = [x + c * y for x, y in zip(M[a], M[b])]
    return M


def test_snf_sparse_phase_matches_dense_path():
    rng = random.Random(14)
    for _ in range(200):
        M = random_sparse_matrix(rng)
        D, _ = snf_with_transforms(M)
        assert snf_diagonal(M) == [D[i][i] for i in range(min(len(M), len(M[0])))]


def test_eliminate_units_same_moves_over_z_and_r():
    # constant Laurent polynomials are a copy of Z inside R: both rings take
    # the same pivots and leave the same rows, none in a pivot column
    rng = random.Random(16)
    for _ in range(60):
        rows_z = [{j: v for j, v in enumerate(r) if v} for r in random_sparse_matrix(rng)]
        rows_r = [{j: LaurentPoly.constant(1, v) for j, v in r.items()} for r in rows_z]
        pivots = eliminate_units(rows_z, lambda v: v if v in (1, -1) else None)
        assert eliminate_units(rows_r, lambda e: e ** -1 if e.is_unit() else None) == pivots
        assert rows_r == [{j: LaurentPoly.constant(1, v) for j, v in r.items()} for r in rows_z]
        assert not any(j in r for r in rows_z for j in pivots)


def check_pivot_rule(rows, inverse) -> None:
    """Run `eliminate_units` on rows and check that each pivot is the first
    unit of a shortest row that holds one.  `inverse` returns a unit exactly
    once per pivot, before that step moves any row, so copies taken then
    are the rows each step starts from."""
    states = []

    def watched(v):
        u = inverse(v)
        if u is not None:
            states.append([dict(r) for r in rows])
        return u

    def first_unit(r):
        return next((j for j, v in r.items() if inverse(v) is not None), None)

    pivots = eliminate_units(rows, watched)
    assert len(states) == len(pivots)
    for c, before, after in zip(pivots, states, states[1:] + [rows]):
        # the pivot row is emptied, and so is every row that is a multiple of
        # it (same support); no other row is
        emptied = [r for r, s in zip(before, after) if c in r and not s]
        shortest = min(len(r) for r in before if first_unit(r) is not None)
        assert {len(r) for r in emptied} == {shortest}
        assert c in map(first_unit, emptied)
    assert not any(first_unit(r) is not None for r in rows)


def test_eliminate_units_pivots_on_a_shortest_row_with_a_unit():
    rng = random.Random(19)
    for _ in range(150):
        M = random_sparse_matrix(rng)
        check_pivot_rule([{j: v for j, v in enumerate(r) if v} for r in M], _int_unit_inverse)
        D, _ = snf_with_transforms(M)
        assert snf_diagonal(M) == [D[i][i] for i in range(min(len(M), len(M[0])))]
    # over R: small planted presentations, then up to 6 x 6 ones in which
    # about a third of the entries are units ±t^k
    presentations = [mod.matrix for mod in planted_presentations(seed=19, count=100)]
    for _ in range(100):
        nvars, m1, m0 = rng.randint(1, 2), rng.randint(1, 6), rng.randint(1, 6)
        presentations.append([
            [LaurentPoly.monomial([rng.randint(-1, 1) for _ in range(nvars)], rng.choice([-1, 1]))
             if rng.random() < 0.3 else random_laurent(rng, nvars) for _ in range(m0)]
            for _ in range(m1)])
    for matrix in presentations:
        check_pivot_rule([{j: e for j, e in enumerate(r) if e} for r in matrix],
                         lambda e: e ** -1 if e.is_unit() else None)


def check_row_transform(M, D, U, brute=True):
    """U is unimodular and row i of U·M is d_i times an integer row (zero
    past the rank); the diagonal is the invariant factors of `snf_diagonal`
    and, with `brute`, of the minors."""
    m, n = len(M), len(M[0])
    diag = [D[i][i] for i in range(min(m, n))]
    assert diag == snf_diagonal(M)
    if brute:
        assert diag == brute_invariant_factors(M)
    assert abs(bareiss_det([list(map(int, r)) for r in U])) == 1
    d = [x for x in diag if x]
    for i, row in enumerate(matmul([list(r) for r in U], M)):
        if i < len(d):
            assert all(x % d[i] == 0 for x in row)
        else:
            assert not any(row)


def test_snf_transforms_unimodular():
    rng = random.Random(11)
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        check_row_transform(M, *snf_with_transforms(M))


def test_snf_transforms_on_larger_matrices():
    # 5 x 5 to 8 x 8 have too many minors for the brute-force reference;
    # snf_diagonal, which runs phase 1 first, is the reference instead
    rng = random.Random(17)
    for _ in range(60):
        m, n = rng.randint(5, 8), rng.randint(5, 8)
        M = [[rng.choice([0, 0, 1, -1, 2, -3, 4, 6, -9]) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:
            M[-1] = [2 * x - y for x, y in zip(M[0], M[1])]
        D, U = snf_with_transforms(M)
        assert all(D[i][j] == 0 for i in range(m) for j in range(n) if i != j)
        check_row_transform(M, D, U, brute=False)


def test_snf_transforms_pinned_row_moves():
    # U records every pivot, swap and promotion, so it pins the moves of
    # phase 2 (as made on numpy object arrays before the port to lists)
    rng = random.Random(18)
    h = hashlib.sha256()
    for _ in range(40):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        h.update(repr(snf_with_transforms(M)[1]).encode())
    assert h.hexdigest() == "ad21d525632c70d8377b4edb3301a3a364abfd4c8cc2e5ddc5543d389ac31c86"


def test_snf_transforms_repair_divisibility_chain():
    # diagonal entries with no divisibility chain, e.g. (6, 4, 10) -> (2, 2, 60)
    D, U = snf_with_transforms([[6, 0, 0], [0, 4, 0], [0, 0, 10]])
    assert [D[i][i] for i in range(3)] == [2, 2, 60]
    rng = random.Random(15)
    for _ in range(120):
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        M = [[rng.choice([0, 2, 3, 4, 6, 9, 10, 15]) if i == j else 0 for j in range(n)]
             for i in range(m)]
        for _ in range(rng.randint(0, 2)):
            a, b = rng.sample(range(m), 2)
            M[a] = [x - y for x, y in zip(M[a], M[b])]
        check_row_transform(M, *snf_with_transforms(M))


def dense_snf_with_transforms(M):
    """(D, U) by `_diagonalize` and `_repair_chain` alone: the dense path
    that `snf_with_transforms` skips on a matrix already in Smith form."""
    A = [list(r) for r in M]
    U = [[int(i == j) for j in range(len(A))] for i in range(len(A))]
    intlinalg._diagonalize(A, U)
    diag = [A[i][i] for i in range(min(len(A), len(A[0])))]
    intlinalg._repair_chain(diag, U)
    for i, d in enumerate(diag):
        A[i][i] = d
    return A, U


@pytest.fixture
def dense_calls(monkeypatch):
    calls = []
    diagonalize = intlinalg._diagonalize

    def counting(A, U=None):
        calls.append(len(A))
        return diagonalize(A, U)

    monkeypatch.setattr(intlinalg, "_diagonalize", counting)
    return calls


def test_snf_transforms_of_a_smith_form_is_itself(dense_calls):
    # a square diagonal chain of positive entries takes no row move
    rng = random.Random(3540)
    for _ in range(60):
        n = rng.randint(1, 5)
        d = [rng.choice([1, 1, 2, 3, 5])]
        for _ in range(n - 1):
            d.append(d[-1] * rng.choice([1, 1, 2, 3, 4, 7]))
        M = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
        want = dense_snf_with_transforms(M)
        assert dense_calls == [n]
        dense_calls.clear()
        assert snf_with_transforms(M) == want == (M, [[int(i == j) for j in range(n)] for i in range(n)])
        assert dense_calls == []


@pytest.mark.parametrize("M", [
    [[4, 0], [0, 6]],  # no divisibility chain
    [[6, 0], [0, 4]],  # a chain out of order
    [[2, 0], [0, 0]],  # a zero on the diagonal
    [[0]],
    [[-3]],  # a negative entry
    [[2, 0], [0, -4]],
    [[2, 1], [0, 4]],  # off the diagonal
    [[2, 0], [0, 4], [0, 0]],  # rectangular
    [[2, 0, 0], [0, 4, 0]],
])
def test_snf_transforms_off_smith_form_take_the_dense_path(M, dense_calls):
    got = snf_with_transforms(M)
    assert dense_calls == [len(M)]
    assert got == dense_snf_with_transforms(M)
    check_row_transform(M, *got)


def test_kernel_basis_spans_kernel():
    rng = random.Random(12)
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        K = kernel_basis(M, n)
        assert K == hnf_rows(K)
        for col in K:
            assert all(sum(M[i][j] * col[j] for j in range(n)) == 0 for i in range(m))
        rank = sum(1 for d in snf_diagonal(M) if d)
        assert len(K) == n - rank
        # saturated: Z^n / span(K) is torsion-free, so K spans all of ker(M)
        assert not K or set(snf_diagonal(K)) == {1}
    assert kernel_basis([[0, 0]], 2) == [[1, 0], [0, 1]]
    assert kernel_basis([[1, 2]], 2) == [[2, -1]]
    assert kernel_basis([], 0) == []
    assert kernel_basis([], 2) == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        kernel_basis([[1, 2]], 3)


def test_hnf_canonical_under_generating_set_changes():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 4)
        vecs = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        b1 = hnf_rows(vecs)
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        cs = [rng.randint(-2, 2) for _ in vecs]
        comb = [sum(c * v[i] for c, v in zip(cs, vecs)) for i in range(n)]
        assert hnf_rows(shuffled + [comb]) == b1
        for v in vecs:
            assert hnf_coordinates(b1, v) is not None


def test_hnf_shape():
    basis = hnf_rows([[0, 4, 4], [2, 1, -5], [4, -2, 5]])
    pivots = [next(i for i, x in enumerate(r) if x) for r in basis]
    assert pivots == sorted(pivots)
    for idx, r in enumerate(basis):
        p = r[pivots[idx]]
        assert p > 0
        for above in basis[:idx]:
            assert 0 <= above[pivots[idx]] < p


def test_hnf_coordinates():
    basis = hnf_rows([[2, 1], [0, 3]])
    assert hnf_coordinates(basis, [2, 4]) == [1, 1]
    assert hnf_coordinates(basis, [1, 0]) is None


def test_det_and_solve():
    assert bareiss_det([[1, 2], [3, 4]]) == -2
    assert bareiss_det([[2]]) == 2
    assert bareiss_det([]) == 1
    assert bareiss_det([[2, 0], [0, 2]]) == 4
    assert bareiss_det([[1, 1], [0, 1]]) == 1
    assert bareiss_det([[2, 0], [0, 1]]) == 2
    with pytest.raises(ValueError):
        bareiss_det([[2, 0, 1], [0, 1, 0]])


def test_small_helpers():
    assert xgcd(12, 18) == (-1, 1, 6)[0:3] or xgcd(12, 18)[2] == 6
    x, y, g = xgcd(-12, 18)
    assert x * -12 + y * 18 == g == 6
    for a in range(-20, 20):
        for b in (1, 2, 3, 7):
            q = nearest_div(a, b)
            assert abs(a - q * b) * 2 <= b


def test_int_log_huge():
    n = 3 ** 5000
    approx = int_log(n)
    assert abs(approx - 5000 * math.log(3)) < 1e-6 * approx
    assert int_log(7) == pytest.approx(math.log(7))
    with pytest.raises(ValueError):
        int_log(0)
