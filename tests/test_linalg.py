"""Exact elimination: SpanQ nullspaces and SpanMod ranks."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from liebranch.linalg import SpanMod, SpanQ
from oracles import kernel


@st.composite
def integer_matrices(draw):
    ncols = draw(st.integers(1, 7))
    row = st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
    return ncols, draw(st.lists(row, max_size=8))


@given(integer_matrices())
@settings(max_examples=200, deadline=None)
def test_kernel_is_annihilated_and_rank_nullity(data):
    ncols, rows = data
    span = SpanQ(ncols)
    for r in rows:
        span.add(r)
    basis = kernel(span)
    assert span.rank + len(basis) == ncols
    for vec in basis:
        assert all(type(x) is Fraction for x in vec)
        for r in rows:
            assert sum(a * x for a, x in zip(r, vec)) == 0


def naive_rref(rows, p):
    """Reduced row echelon form modulo p by textbook Gauss-Jordan."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rows[:rank]


def dense_rows(span):
    """The reduced rows of a SpanMod as dense lists, in the order they were
    added: 1 at the row's pivot, 0 at the other pivots, and the stored
    entries at the free columns."""
    out = [[0] * span.dim for _ in span.pivots]
    for row, piv in zip(out, span.pivots):
        row[piv] = 1
    for f, col in zip(span.free, span.cols):
        for row, c in zip(out, col):
            row[f] = c
    return out


@given(st.sampled_from([7, 101]), integer_matrices())
@settings(max_examples=300, deadline=None)
def test_spanmod_matches_naive_elimination(p, data):
    # small primes make dependent rows, and so add() -> False, common
    ncols, rows = data
    span = SpanMod(ncols, p)
    for k, r in enumerate(rows):
        grew = len(naive_rref(rows[: k + 1], p)) > len(naive_rref(rows[:k], p))
        assert span.add(r) is grew
    want = naive_rref(rows, p)
    assert span.rank == len(want)
    # the reduced echelon form of a span is unique
    assert [r for _, r in sorted(zip(span.pivots, dense_rows(span)))] == want
