import pathlib
import random

import pytest

from torgrowth.laurent import LaurentPoly
from torgrowth.presmod import PresentedModule

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture
def snf_calls(monkeypatch) -> list[int]:
    """The row counts of the matrices `torsion` hands to SNF, in call order."""
    from torgrowth import torsion

    calls: list[int] = []
    original = torsion.snf_diagonal

    def counting(mat):
        calls.append(len(mat))
        return original(mat)

    monkeypatch.setattr(torsion, "snf_diagonal", counting)
    return calls


@pytest.fixture
def trefoil_text() -> str:
    return (DATA / "trefoil.txt").read_text()


@pytest.fixture
def fig8_text() -> str:
    return (DATA / "fig8.txt").read_text()


@pytest.fixture
def hopf_text() -> str:
    return (DATA / "hopf.txt").read_text()


def lucas(n: int) -> int:
    """The Lucas number L_n (L_0 = 2, L_1 = 1) by the recurrence."""
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def random_laurent(rng: random.Random, nvars: int, max_terms: int = 3,
                   exp_range: tuple[int, int] = (-2, 2), coeff_max: int = 3) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(*exp_range) for _ in range(nvars))
        terms[e] = terms.get(e, 0) + rng.randint(-coeff_max, coeff_max)
    return LaurentPoly(nvars, terms)


def random_nonzero_laurent(rng: random.Random, nvars: int, **kw) -> LaurentPoly:
    while True:
        p = random_laurent(rng, nvars, **kw)
        if not p.is_zero():
            return p


def planted_presentations(seed: int = 707, count: int = 300):
    """Random 1-3 x 1-3 presentations in 1 or 2 variables, each with a unit
    entry ±t^k (sometimes with another row a multiple of the unit's row), a
    singleton column whose row holds an exact multiple of its entry, or both,
    so that every rule of `reduce_presentation` has work to do."""
    rng = random.Random(seed)
    for _ in range(count):
        nvars = rng.randint(1, 2)
        m1, m0 = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[random_laurent(rng, nvars, max_terms=2, exp_range=(-1, 2), coeff_max=2)
                 for _ in range(m0)]
                for _ in range(m1)]
        plant = rng.choice(["unit", "multiple", "both"])
        if plant != "multiple":
            i, j = rng.randrange(m1), rng.randrange(m0)
            rows[i][j] = LaurentPoly.monomial([rng.randint(-1, 1) for _ in range(nvars)],
                                              rng.choice([-1, 1]))
            if m1 > 1 and rng.random() < 0.4:
                f = random_nonzero_laurent(rng, nvars, max_terms=2, exp_range=(-1, 1))
                rows[i - 1] = [f * a for a in rows[i]]
        if plant != "unit":
            i, c = rng.randrange(m1), rng.randrange(m0)
            for k in range(m1):
                if k != i:
                    rows[k][c] = LaurentPoly.zero(nvars)
            e = rows[i][c] = random_nonzero_laurent(rng, nvars, max_terms=2, exp_range=(-1, 1))
            if m0 > 1:
                f = random_nonzero_laurent(rng, nvars, max_terms=2, exp_range=(-1, 1))
                rows[i][(c + 1) % m0] = e * f
        yield PresentedModule(nvars, tuple(tuple(r) for r in rows))
