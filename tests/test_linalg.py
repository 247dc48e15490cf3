"""Exact elimination: SpanQ nullspaces and SpanMod ranks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liebranch.linalg import SpanMod, SpanQ
from liebranch.sphericity import PRIME
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


def stored_rows(span):
    """The rows of a SpanMod unpacked from their slots as dense residue
    lists, in the order they were added: each slot holds -(entry) mod p."""
    return [
        [(span.p - (row >> s & span.mask)) % span.p for s in span.slots]
        for row in span.rows
    ]


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
    assert naive_rref(stored_rows(span), p) == want


def check_against_naive(rows, p):
    """add() grows the span exactly at the rows outside the span of the
    earlier ones: the pivot columns of the transposed matrix's reduced form."""
    want = naive_rref([list(col) for col in zip(*rows)], p)
    grows = {next(k for k, x in enumerate(r) if x) for r in want}
    span = SpanMod(len(rows[0]), p)
    assert [span.add(r) for r in rows] == [k in grows for k in range(len(rows))]
    assert span.rank == len(want)
    assert naive_rref(stored_rows(span), p) == naive_rref(rows, p)


def heaviest_slot_rows(dim, p):
    """Rows e_k + e_last, k < dim - 1, then a vector with p - 1 at every
    pivot: eliminating it adds (p - 1)^2 to the last slot dim - 1 times,
    about dim * p^2, the most the slot width allows for.  The first such
    vector lies in the span and the second does not."""
    rows = [[int(j == k or j == dim - 1) for j in range(dim)] for k in range(dim - 1)]
    dep = [p - 1] * (dim - 1) + [(dim - 1) * (p - 1) % p]
    return rows + [dep, [p - 1] * dim]


def random_rows(dim, p, seed):
    """Residues near p - 1, rows with negative entries, and sums of earlier
    rows (dependent, so add() -> False), in a seeded mix.  The dim - 4 rows
    of seed 0 leave the rank short; the 3 * dim // 2 rows of seed 1 fill it,
    and the rows after that are dependent too."""
    rng = random.Random(seed)
    rows = []
    for _ in range(3 * dim // 2 if seed else dim - 4):
        kind = rng.randrange(4)
        if kind == 0 and rows:
            picked = rng.sample(rows, min(3, len(rows)))
            rows.append([sum(col) for col in zip(*picked)])
        elif kind == 1:
            rows.append([rng.randint(-p + 1, p - 1) for _ in range(dim)])
        else:
            rows.append([p - 1 - rng.randrange(4) if rng.random() < 0.8 else 0
                         for _ in range(dim)])
    return rows


# 56 columns is the E8 > E7xA1 node-8 cell and 106 the largest E8 flag
@pytest.mark.parametrize("dim", [56, 57, 106])
@pytest.mark.parametrize("case", ["heaviest", 0, 1])
def test_spanmod_slot_width_at_production_prime(dim, case):
    p = PRIME
    if case == "heaviest":
        check_against_naive(heaviest_slot_rows(dim, p), p)
    else:
        check_against_naive(random_rows(dim, p, case), p)
