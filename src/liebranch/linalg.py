"""Exact linear algebra over Q and over prime fields.

Vectors come in as dense lists of Fraction/int.  The incremental reduced
row-echelon span SpanQ is the only elimination over Q, and the only
rational arithmetic, in the package: it splits the flag columns of a
sphericity setup into pivots and the free columns of the open cell.
SpanMod takes every rank the sphericity tests need, modulo a prime; it
packs each row into one int, so that an elimination step is one big-int
multiply-add instead of one interpreted operation per entry.
"""

from __future__ import annotations

from fractions import Fraction
from operator import lshift


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
    """Row-echelon span over Z/p for a fixed odd prime p, one int per row.

    A vector is packed into one int with a slot of W bits per column,
    entry j at bit W * j.  Each stored row r is reduced modulo p, is 1 at
    its pivot and 0 at the pivots of the earlier rows, and is stored
    negated, as the packed residues of -r.  Eliminating a vector against
    row k is then one big-int multiply-add v += c * row_k, with c the
    vector's residue at the pivot, and the slots are reduced once, at the
    end.  Adding c * row_k puts less than p^2 in a slot and a vector meets
    at most dim rows, so a slot stays below p + dim * p^2; W is the bit
    length of that bound, and no slot carries into the next.  For p below
    2^30, W is about 2 * 30 + log2(dim).
    """

    def __init__(self, dim: int, p: int):
        self.p = p
        width = (p + dim * p * p).bit_length()  # W
        self.mask = (1 << width) - 1
        self.slots = range(0, width * dim, width)  # bit offset of each column
        self.shifts = []  # bit offset of the pivot of rows[k]
        self.rows = []  # packed residues of -(row k)

    @property
    def rank(self):
        return len(self.rows)

    def add(self, vec) -> bool:
        """Insert a vector; True if it enlarged the span.  The new pivot is
        the lowest column where the residue of ``vec`` is nonzero."""
        p, mask, slots = self.p, self.mask, self.slots
        v = sum(map(lshift, [x % p for x in vec], slots))
        # rows in insertion order: each is 0 at the earlier rows' pivots,
        # so a cleared pivot stays cleared
        for s, row in zip(self.shifts, self.rows):
            c = (v >> s & mask) % p
            if c:
                v += c * row
        res = [(v >> s & mask) % p for s in slots]
        j = next((j for j, c in enumerate(res) if c), None)
        if j is None:
            return False
        neg = p - pow(res[j], -1, p)  # -1 / pivot entry
        self.shifts.append(slots[j])
        self.rows.append(sum(map(lshift, [x * neg % p for x in res], slots)))
        return True
