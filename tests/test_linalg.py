"""The Gauss-Jordan kernel against sympy.Matrix: rank, determinant,
reduced row echelon form, inverse and solve on seeded random rational
matrices."""

import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from gpnf.linalg import gauss_jordan


def _rand_matrix(rng, rows, cols, zeros=0.3):
    return [[F(0) if rng.random() < zeros
             else F(rng.randint(-9, 9), rng.randint(1, 6))
             for _ in range(cols)] for _ in range(rows)]


def _combine(rng, M, extra):
    """M with `extra` more rows, each a random combination of M's rows."""
    out = [row[:] for row in M]
    for _ in range(extra):
        cs = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in M]
        out.append([sum(c * row[j] for c, row in zip(cs, M))
                    for j in range(len(M[0]))])
    rng.shuffle(out)
    return out


def _sym(M):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                          for v in row] for row in M])


def _frac(x):
    x = sympy.Rational(x)
    return F(int(x.p), int(x.q))


def _identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("seed", range(12))
def test_square_rank_det_inverse(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    M = _rand_matrix(rng, n, n)
    A = [row + e for row, e in zip(M, _identity(n))]
    rank, det = gauss_jordan(A, n)
    S = _sym(M)
    assert rank == S.rank()
    assert det() == _frac(S.det())
    if rank == n:
        inv = S.inv()
        assert [row[n:] for row in A] == [[_frac(inv[i, j]) for j in range(n)]
                                          for i in range(n)]


@pytest.mark.parametrize("seed", range(12))
def test_singular_square(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(2, 5)
    k = rng.randint(1, n - 1)
    M = _combine(rng, _rand_matrix(rng, k, n), n - k)
    rank, det = gauss_jordan(list(M), n)
    assert rank == _sym(M).rank() < n
    assert det() == 0 == _sym(M).det()


@pytest.mark.parametrize("seed", range(12))
def test_non_square_rref(seed):
    rng = random.Random(200 + seed)
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    M = _rand_matrix(rng, rows, cols, zeros=0.5)
    snapshot = [row[:] for row in M]
    A = list(M)
    rank, _det = gauss_jordan(A, cols)
    R, pivots = _sym(M).rref()
    assert rank == len(pivots)
    assert A == [[_frac(R[i, j]) for j in range(cols)] for i in range(rows)]
    assert M == snapshot  # rows are replaced, never mutated


@pytest.mark.parametrize("seed", range(12))
def test_solve_matches_sympy(seed):
    rng = random.Random(300 + seed)
    n = rng.randint(1, 5)
    M = _rand_matrix(rng, n, n, zeros=0.2)
    b = [F(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(n)]
    S = _sym(M)
    A = [row + [v] for row, v in zip(M, b)]
    rank, _det = gauss_jordan(A, n)
    assert rank == S.rank()
    if rank == n:
        x = S.LUsolve(_sym([[v] for v in b]))
        assert [row[n] for row in A] == [_frac(x[i]) for i in range(n)]


@pytest.mark.parametrize("seed", range(10))
def test_rank_deficient_field_rhs(seed, K_plastic):
    """A consistent rank-deficient system whose right-hand side holds field
    elements reduces, coordinate by coordinate, to sympy's rref of the
    system with one rational column per coordinate."""
    rng = random.Random(400 + seed)
    m = K_plastic.degree
    rows, n = rng.randint(2, 5), rng.randint(2, 5)
    k = rng.randint(1, min(rows, n) - 1)
    M = _combine(rng, _rand_matrix(rng, k, n), rows - k)
    x0 = [K_plastic.element([F(rng.randint(-5, 5), rng.randint(1, 3))
                             for _ in range(m)]) for _ in range(n)]
    rhs = [sum((a * x for a, x in zip(row, x0)), K_plastic.zero) for row in M]
    A = [row + [v] for row, v in zip(M, rhs)]
    rank, _det = gauss_jordan(A, n)
    coords = [row + list(v.coords) for row, v in zip(M, rhs)]
    R, pivots = _sym(coords).rref()
    assert rank == len(pivots) == _sym(M).rank() < n
    assert all(p < n for p in pivots)
    for i, row in enumerate(A):
        assert row[:n] == [_frac(R[i, j]) for j in range(n)]
        assert list(row[n].coords) == [_frac(R[i, n + k]) for k in range(m)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5).flatmap(lambda cols: st.lists(
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4),
             min_size=cols, max_size=cols), min_size=1, max_size=5)))
def test_rank_and_det_property(M):
    n = len(M[0])
    rank, det = gauss_jordan(list(M), n)
    S = _sym(M)
    assert rank == S.rank()
    if len(M) == n:
        assert det() == _frac(S.det())
