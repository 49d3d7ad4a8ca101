"""Gauss-Jordan elimination shared by every linear solve in the package.

One exact kernel serves the rational systems: inverses (of the trace
form and of a lattice basis), ranks and determinants.  Every caller
carries Fraction columns.  Private to the package.
"""

from __future__ import annotations

import math


def gauss_jordan(A: list, n: int) -> tuple:
    """Reduce the augmented matrix A (a list of row lists) in place over its
    first n columns, to reduced row echelon form.  Rows of A are replaced,
    never mutated, so A may share row lists with another matrix.

    Column c takes as pivot the first nonzero entry at or below the current
    rank.  That row is moved up, scaled to a leading 1 and subtracted from
    every other row whose entry in column c is nonzero.  A column without a
    pivot is skipped.  The carried columns (index n and up) may hold
    anything that the pivot entries scale; every caller carries
    Fractions.

    Returns (rank, det).  When rank == n the carried columns hold the
    solution (the inverse, if they started as the identity).  det() is the
    determinant of a square leading block, 0 when rank < n; it is computed
    on demand, so a caller that never reads it pays for no product of
    pivots.
    """
    rows = len(A)
    rank, sign, pivots = 0, 1, []
    for c in range(n):
        piv = next((r for r in range(rank, rows) if A[r][c] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            A[rank], A[piv] = A[piv], A[rank]
            sign = -sign
        p = A[rank][c]
        pivots.append(p)
        inv = 1 / p
        top = A[rank] = [v * inv for v in A[rank]]
        for r in range(rows):
            f = A[r][c]
            if r != rank and f != 0:
                A[r] = [v - w * f for v, w in zip(A[r], top)]
        rank += 1

    def det():
        return math.prod(pivots, start=sign) if rank == n else 0

    return rank, det
