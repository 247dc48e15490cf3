import hashlib
import itertools
import random
from operator import add

import pytest
from fractions import Fraction

from liebranch.chevalley import chevalley_basis, neg
from liebranch.rootsys import SimpleType
from liebranch.sphericity import PRIME
from oracles import (
    StructureConstants,
    bracket_table,
    centralizer,
    exp_ad_apply_exact,
    h,
    to_dense,
    x,
)


def T(name):
    return SimpleType(name[0], int(name[1]))


def nconst(cb, a, b):
    """N(a, b) read off the bracket table: [X_a, X_b] = N(a, b) X_{a+b}."""
    ((k, n),) = cb._table[cb.root_index[a]][cb.root_index[b]]
    assert cb.signed_root_of_index(k) == tuple(map(add, a, b))
    return n


def test_sl2_relations():
    cb = chevalley_basis(T("A1"))
    X, Y, H = x(cb, (1,)), x(cb, (-1,)), h(cb, 0)
    assert cb.bracket(X, Y) == H
    assert cb.bracket(H, X) == {list(X)[0]: 2}
    assert cb.bracket(H, Y) == {list(Y)[0]: -2}


def test_sl3_structure_constants():
    cb = chevalley_basis(T("A2"))
    a, b, g = (0, 1), (1, 0), (1, 1)
    # (a, b) is the chosen factorization of g: a is first in root order,
    # and the a-string below b is empty, so N(a, b) = +1
    assert StructureConstants(cb.rs).extraspecial[g] == (a, b)
    assert nconst(cb, a, b) == 1
    assert nconst(cb, b, a) == -1
    assert nconst(cb, neg(a), neg(b)) == -1
    assert cb.bracket(x(cb, a), x(cb, b)) == x(cb, g)
    # [X_g, X_{-a}] lands on X_b with the forced constant
    got = cb.bracket(x(cb, g), x(cb, neg(a)))
    assert got == {cb.root_index[b]: nconst(cb, g, neg(a))}
    assert nconst(cb, g, neg(a)) in (1, -1)


def test_g2_string_lengths_show_up():
    cb = chevalley_basis(T("G2"))
    # alpha1-string through alpha2 has q = 3: constants of size up to 3 occur
    mags = set()
    rs = cb.rs
    for a in rs.positive_roots:
        for b in rs.positive_roots:
            s = tuple(x + y for x, y in zip(a, b))
            if rs.is_root(s):
                mags.add(abs(nconst(cb, a, b)))
    assert mags == {1, 2, 3}


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "C3", "D4", "F4"])
def test_jacobi_exhaustive(name):
    cb = chevalley_basis(T(name))
    n = cb.dim
    basis = [{k: 1} for k in range(n)]
    for i, j, k in itertools.combinations(range(n), 3):
        jac = cb.bracket(basis[i], cb.bracket(basis[j], basis[k]))
        for key, val in cb.bracket(basis[j], cb.bracket(basis[k], basis[i])).items():
            jac[key] = jac.get(key, 0) + val
        for key, val in cb.bracket(basis[k], cb.bracket(basis[i], basis[j])).items():
            jac[key] = jac.get(key, 0) + val
        assert not any(jac.values()), (name, i, j, k)


@pytest.mark.parametrize("name,ntrials", [("E6", 1500), ("E7", 1000), ("E8", 600)])
def test_jacobi_sampled(name, ntrials):
    cb = chevalley_basis(T(name))
    rng = random.Random(20260815)
    n = cb.dim
    for _ in range(ntrials):
        i, j, k = rng.sample(range(n), 3)
        ei, ej, ek = {i: 1}, {j: 1}, {k: 1}
        jac = cb.bracket(ei, cb.bracket(ej, ek))
        for key, val in cb.bracket(ej, cb.bracket(ek, ei)).items():
            jac[key] = jac.get(key, 0) + val
        for key, val in cb.bracket(ek, cb.bracket(ei, ej)).items():
            jac[key] = jac.get(key, 0) + val
        assert not any(jac.values()), (name, i, j, k)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "C3", "F4", "E6"])
def test_constant_magnitudes_are_string_lengths(name):
    cb = chevalley_basis(T(name))
    rs = cb.rs
    sc = StructureConstants(rs)
    for a in rs.positive_roots:
        for b in rs.positive_roots:
            if a == b:
                continue
            s = tuple(x + y for x, y in zip(a, b))
            if rs.is_root(s):
                p = sc.string_down(b, a)
                assert abs(nconst(cb, a, b)) == p + 1, (a, b)


@pytest.mark.parametrize("name", ["G2", "F4", "E6", "E7"])
def test_extraspecial_constants_positive(name):
    cb = chevalley_basis(T(name))
    for g, (a1, b1) in StructureConstants(cb.rs).extraspecial.items():
        assert nconst(cb, a1, b1) > 0, g


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "B2", "C3", "D4", "G2", "F4", "E6", "E7", "E8"]
)
def test_table_matches_structure_constant_oracle(name):
    cb = chevalley_basis(T(name))
    want = bracket_table(cb)
    assert len(cb._table) == len(want) == cb.dim
    for i, (got_row, want_row) in enumerate(zip(cb._table, want)):
        assert got_row == want_row, (name, i)


@pytest.mark.parametrize("name", ["A2", "G2", "F4", "E6"])
def test_cartan_acts_by_root_weights(name):
    cb = chevalley_basis(T(name))
    rs = cb.rs
    for a in rs.positive_roots:
        wa = rs.weight_of_root(a)
        for i in range(cb.rank):
            got = cb.bracket(h(cb, i), x(cb, a))
            want = {cb.root_index[a]: wa[i]} if wa[i] else {}
            assert got == want


def test_h_coroot_matches_bracket():
    for name in ["B2", "G2", "F4"]:
        cb = chevalley_basis(T(name))
        for a in cb.rs.positive_roots:
            assert cb.bracket(x(cb, a), x(cb, neg(a))) == cb.h_coroot(a)


def test_exp_ad_on_opposite_root_vector():
    cb = chevalley_basis(T("G2"))
    for a in cb.rs.positive_roots:
        cols = cb.ad_columns(x(cb, a))
        out = exp_ad_apply_exact(cb, cols, to_dense(cb, x(cb, neg(a))))
        want = {cb.root_index[neg(a)]: 1, cb.root_index[a]: -1}
        for j, c in cb.h_coroot(a).items():
            want[j] = want.get(j, 0) + c
        got = {j: c for j, c in enumerate(out) if c}
        assert got == want
        modp = cb.exp_ad_apply(cols, x(cb, neg(a)), PRIME)
        assert modp == {j: c % PRIME for j, c in want.items()}


def test_exp_ad_mod_p_matches_exact():
    cb = chevalley_basis(T("F4"))
    rng = random.Random(7)
    p = 2_147_483_659  # prime > 2^31
    for _ in range(5):
        roots = rng.sample(cb.rs.positive_roots[:10], 3)
        u = {}
        for a in roots:
            u[cb.root_index[a]] = rng.randint(-4, 4)
        cols = cb.ad_columns(u)
        v = [rng.randint(-9, 9) for _ in range(cb.dim)]
        exact = exp_ad_apply_exact(cb, cols, v)
        modp = cb.exp_ad_apply(cols, {i: c for i, c in enumerate(v) if c}, p)
        assert all(type(e) is Fraction for e in exact)
        for e, mres in zip(exact, to_dense(cb, modp)):
            fe = Fraction(e)
            assert (fe.numerator * pow(fe.denominator, -1, p) - mres) % p == 0


def test_exp_ad_inverse():
    cb = chevalley_basis(T("C3"))
    rng = random.Random(11)
    u = {cb.root_index[a]: rng.randint(-3, 3) for a in cb.rs.positive_roots[:6]}
    cols_f = cb.ad_columns(u)
    cols_b = cb.ad_columns({k: -c for k, c in u.items()})
    v = [rng.randint(-9, 9) for _ in range(cb.dim)]
    w = exp_ad_apply_exact(cb, cols_f, v)
    back = exp_ad_apply_exact(cb, cols_b, w)
    assert [Fraction(x) for x in v] == back
    w = cb.exp_ad_apply(cols_f, {i: c for i, c in enumerate(v) if c}, PRIME)
    back = to_dense(cb, cb.exp_ad_apply(cols_b, w, PRIME))
    assert back == [c % PRIME for c in v]


def test_centralizer_of_cartan_is_cartan():
    cb = chevalley_basis(T("A2"))
    basis = centralizer(cb, [h(cb, 0), h(cb, 1)])
    assert len(basis) == 2
    for v in basis:
        assert all(v[k] == 0 for k in range(2 * cb.m))


def test_centralizer_of_regular_nilpotent_has_rank_dim():
    # centralizer of a principal nilpotent in sl3 is 2-dimensional (= rank)
    cb = chevalley_basis(T("A2"))
    e = {cb.root_index[(1, 0)]: 1, cb.root_index[(0, 1)]: 1}
    basis = centralizer(cb, [e])
    assert len(basis) == 2


def test_bracket_antisymmetry_random_elements():
    cb = chevalley_basis(T("D4"))
    rng = random.Random(3)
    for _ in range(20):
        u = {rng.randrange(cb.dim): rng.randint(-5, 5) for _ in range(4)}
        v = {rng.randrange(cb.dim): rng.randint(-5, 5) for _ in range(4)}
        uv = cb.bracket(u, v)
        vu = cb.bracket(v, u)
        assert uv == {k: -c for k, c in vu.items()}


@pytest.mark.parametrize("name", ["G2", "F4", "E6"])
def test_ad_columns_match_bracket(name):
    cb = chevalley_basis(T(name))
    rng = random.Random(5)
    for _ in range(3):
        u = {k: rng.randint(-5, 5) for k in rng.sample(range(cb.dim), 6)}
        cols = cb.ad_columns(u)
        assert len(cols) == cb.dim
        for j in range(cb.dim):
            assert cols[j] == cb.bracket(u, {j: 1}), (name, u, j)


@pytest.mark.parametrize("name", ["G2", "F4", "E6"])
def test_bracket_table_antisymmetric(name):
    cb = chevalley_basis(T(name))
    for i in range(cb.dim):
        for j in range(cb.dim):
            ij = cb.bracket({i: 1}, {j: 1})
            assert ij == {k: -c for k, c in cb.bracket({j: 1}, {i: 1}).items()}
            if i == j:
                assert ij == {}


# sha256 of repr(table): every bracket of the five exceptional algebras,
# structure constants and coroot entries alike
BRACKET_TABLE_SHA256 = {
    "G2": "ab1ac17a1078c89b562f3f317170eda049f591f7259f102ffe51ce5ffaf6c5d1",
    "F4": "dfe6912241744cb51d6467ce63331091930172e9dceb879251b0e16da882fed9",
    "E6": "dc1ccd9afddc0c5313060c1a5fba1cadc2e0b5cb88103a129c05a801c98d8ccf",
    "E7": "cc37a1cd47fa66346551a3935c59186d4416d916551c1ad896c18601b3374d6f",
    "E8": "04dd6f0b6e2212cf78a4b3a907ec7b3f39d8799628cf3f8231c5c50ec82d91ba",
}


@pytest.mark.parametrize("name", list(BRACKET_TABLE_SHA256))
def test_bracket_table_digest(name):
    table = chevalley_basis(T(name))._table
    digest = hashlib.sha256(repr(table).encode()).hexdigest()
    assert digest == BRACKET_TABLE_SHA256[name]
