"""Exact linear algebra over Q and over prime fields.

Vectors are dense lists of Fraction/int.  The incremental reduced
row-echelon span SpanQ is the only elimination over Q in the package: it
splits the flag columns of a sphericity setup into pivots and the free
columns of the open cell, and inverts matrices (``inverse``).  SpanMod
takes every rank the sphericity tests need, modulo a prime.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul


class SpanQ:
    """Incrementally built row-echelon basis of a rational subspace."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows = []  # reduced rows, one pivot each
        self.pivots = []  # pivot column of rows[k]
        self.pivot_set = set()

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Residue of ``vec`` after subtracting its projection on the span."""
        v = [Fraction(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                for j in range(self.dim):
                    if row[j]:
                        v[j] -= c * row[j]
        return v

    def add(self, vec) -> bool:
        """Insert a vector; True if it enlarged the span."""
        v = self.reduce(vec)
        p = next((j for j in range(self.dim) if v[j]), None)
        if p is None:
            return False
        inv = 1 / v[p]
        v = [x * inv if x else x for x in v]
        for row in self.rows:
            c = row[p]
            if c:
                for j in range(self.dim):
                    if v[j]:
                        row[j] -= c * v[j]
        self.rows.append(v)
        self.pivots.append(p)
        self.pivot_set.add(p)
        return True

    def nonpivot_columns(self):
        return [j for j in range(self.dim) if j not in self.pivot_set]


class SpanMod:
    """Reduced row-echelon span over Z/p for a fixed odd prime p.

    Every row is 1 at its pivot and 0 at the other rows' pivots, and its
    first nonzero entry is its pivot, so the rows are the reduced echelon
    form of the span whatever order the vectors came in.  A vector's
    coefficients on the rows are then its entries at the pivots, and its
    residue at a free column f is one dot product with the f-entries of
    the rows.  The rows are stored by free column: ``cols[q]`` holds the
    entries of every row at ``free[q]``.
    """

    def __init__(self, dim: int, p: int):
        self.dim = dim
        self.p = p
        self.pivots = []  # pivot column of row r
        self.free = list(range(dim))  # non-pivot columns, ascending
        self.cols = [[] for _ in range(dim)]  # cols[q][r]: row r at free[q]

    @property
    def rank(self):
        return len(self.pivots)

    @property
    def rows(self):
        """The reduced rows as dense lists, in the order they were added."""
        out = [[0] * self.dim for _ in self.pivots]
        for row, piv in zip(out, self.pivots):
            row[piv] = 1
        for f, col in zip(self.free, self.cols):
            for row, c in zip(out, col):
                row[f] = c
        return out

    def add(self, vec) -> bool:
        """Insert a vector; True if it enlarged the span.  The new pivot is
        the lowest free column where the residue of ``vec`` is nonzero."""
        p = self.p
        coefs = [vec[j] for j in self.pivots]
        res = [(vec[f] - sum(map(mul, coefs, col))) % p
               for f, col in zip(self.free, self.cols)]
        q = next((q for q, c in enumerate(res) if c), None)
        if q is None:
            return False
        inv = pow(res.pop(q), -1, p)
        pcol = self.cols.pop(q)
        self.pivots.append(self.free.pop(q))
        # new row: residue / its pivot entry; clear the new pivot column
        # from the old rows
        for col, r in zip(self.cols, res):
            c = r * inv % p
            if c:
                col[:] = [(a - c * b) % p for a, b in zip(col, pcol)]
            col.append(c)
        return True


def inverse(M):
    """Exact inverse of an invertible square matrix, as rows of Fractions.

    Reduces the rows of [M | I]: each reduced row is [e_p | row p of M^-1].
    """
    n = len(M)
    span = SpanQ(2 * n)
    for i, row in enumerate(M):
        span.add(list(row) + [int(i == j) for j in range(n)])
    if max(span.pivots) >= n:
        raise ValueError("matrix is singular")
    inv = [None] * n
    for row, p in zip(span.rows, span.pivots):
        inv[p] = row[n:]
    return inv
