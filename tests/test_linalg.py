"""Exact elimination: SpanQ nullspaces and the Cartan inverse."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liebranch.embeddings import load_catalog
from liebranch.linalg import SpanQ
from liebranch.rootsys import LieError, SimpleType, root_system


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
    kernel = span.kernel()
    assert span.rank + len(kernel) == ncols
    for vec in kernel:
        assert all(type(x) is Fraction for x in vec)
        for r in rows:
            assert sum(a * x for a, x in zip(r, vec)) == 0


def _catalog_simple_types():
    types = set()
    for emb in load_catalog().records:
        types.add(emb.ambient)
        types.update(emb.spec.factors)
    return sorted(types)


@pytest.mark.parametrize("t", _catalog_simple_types(), ids=str)
def test_cartan_inverse(t):
    rs = root_system(t)
    n = rs.rank
    for i in range(n):
        for j in range(n):
            got = sum(rs.C[i][k] * rs.C_inv[k][j] for k in range(n))
            assert got == (1 if i == j else 0)
    for a in rs.positive_roots:
        assert rs.root_coefficients(rs.weight_of_root(a)) == list(a)


def test_root_coefficients_off_the_root_lattice():
    rs = root_system(SimpleType("E", 6))
    with pytest.raises(LieError):
        rs.root_coefficients(rs.fundamental(1))
