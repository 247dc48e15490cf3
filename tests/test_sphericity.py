"""Dense-orbit machinery: cell setups, witnesses, and the classification."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liebranch.chevalley import chevalley_basis
from liebranch.embeddings import load_catalog
from liebranch.linalg import SpanMod, SpanQ
from liebranch.rootsys import LieError, root_system
from liebranch.sphericity import (
    PRIME,
    ClassifyRow,
    SphericitySetup,
    classify_group,
    classify_pair,
    duality_consistent,
    flag_columns,
    flag_dimension,
    generic_translate_test,
    lie_h,
    subseed,
)
from oracles import (
    exp_ad_apply_exact,
    generic_orbit_dim,
    h_dim,
    h_positive_roots_in_g,
    invariant_ring_dim,
    n_roots,
    point_from_neg_roots,
    removed,
    to_dense,
    translate_test_exact,
    unipotent_rank,
)

CAT = load_catalog()

FLAG_DIMS = {
    "G2": [5, 5],
    "F4": [15, 20, 20, 15],
    "E6": [16, 21, 25, 29, 25, 16],
    "E7": [33, 42, 47, 53, 50, 42, 27],
    "E8": [78, 92, 98, 106, 104, 97, 83, 57],
}

SPHERICAL = {
    "G2": {("A2", 1), ("A2", 2)},
    "F4": {("B4", 1), ("B4", 2), ("B4", 3), ("B4", 4)},
    "E6": {
        ("A5xA1", 1), ("A5xA1", 6),
        ("F4", 1), ("F4", 2), ("F4", 3), ("F4", 5), ("F4", 6),
        ("C4", 1), ("C4", 6),
        ("D5xT1", 1), ("D5xT1", 2), ("D5xT1", 3), ("D5xT1", 5), ("D5xT1", 6),
    },
    "E7": {("A7", 7), ("E6xT1", 1), ("E6xT1", 2), ("E6xT1", 7), ("D6xA1", 7)},
    "E8": set(),
}

# explicit dense-orbit certificates: (g, h, node, supports of sum of X_{-a})
WITNESSES = [
    ("G2", "A2", 1, [(1, 1), (2, 1)]),
    ("F4", "B4", 2, [(1, 1, 2, 1), (0, 1, 2, 1), (1, 1, 1, 1), (1, 2, 3, 1)]),
    ("F4", "B4", 3, [(1, 2, 3, 1), (1, 2, 2, 1), (1, 1, 1, 1), (0, 1, 2, 1)]),
    ("E6", "A5xA1", 1, [(1, 1, 2, 3, 2, 1), (1, 1, 1, 1, 1, 1)]),
    ("E6", "F4", 2, [(1, 1, 1, 2, 2, 1)]),
    ("E6", "F4", 3, [(1, 1, 1, 2, 2, 1), (0, 1, 1, 2, 1, 1)]),
    ("E6", "C4", 1, [(1, 1, 2, 3, 2, 1), (1, 1, 1, 1, 1, 1)]),
    ("E7", "A7", 7, [
        (1, 1, 2, 3, 3, 2, 1), (1, 1, 2, 2, 1, 1, 1), (0, 1, 0, 1, 1, 1, 1),
    ]),
    ("E7", "D6xA1", 7, [(1, 2, 2, 3, 2, 1, 1), (1, 0, 1, 1, 1, 1, 1)]),
]

# (g, h, node) -> (dim of cell complement N, generic Levi-unipotent orbit
# dim, generator count of the invariant ring)
ORBIT_NUMBERS = {
    ("G2", "A2", 1): (3, 1, 3),
    ("G2", "A2", 2): (2, 0, 3),
    ("F4", "B4", 1): (4, 3, 2),
    ("F4", "B4", 2): (6, 2, 5),
    ("F4", "B4", 3): (7, 3, 5),
    ("F4", "B4", 4): (8, 6, 3),
    ("E6", "A5xA1", 1): (10, 8, 3),
    ("E6", "A5xA1", 6): (10, 8, 3),
    ("E6", "F4", 1): (1, 0, 2),
    ("E6", "F4", 2): (6, 5, 2),
    ("E6", "F4", 3): (5, 3, 3),
    ("E6", "F4", 5): (5, 3, 3),
    ("E6", "F4", 6): (1, 0, 2),
    ("E6", "C4", 1): (5, 3, 3),
    ("E6", "C4", 6): (5, 3, 3),
    ("E7", "A7", 7): (15, 12, 4),
    ("E7", "D6xA1", 7): (16, 14, 3),
}


def test_flag_dimensions():
    for g, dims in FLAG_DIMS.items():
        assert [flag_dimension(g, i + 1) for i in range(len(dims))] == dims


def test_flag_dimension_bad_node():
    with pytest.raises(LieError):
        flag_dimension("G2", 3)


def test_g2_cell_roots():
    setup = SphericitySetup(CAT.get("G2", "A2"), 1)
    assert n_roots(setup) == [(1, 0), (1, 1), (2, 1)]
    assert len(setup.levi_vectors) == 1
    setup = SphericitySetup(CAT.get("G2", "A2"), 2)
    assert n_roots(setup) == [(1, 1), (2, 1)]
    assert setup.levi_vectors == []


def test_f4_cell_roots():
    emb = CAT.get("F4", "B4")
    setup = SphericitySetup(emb, 1)
    assert sorted(n_roots(setup)) == [
        (1, 1, 1, 1), (1, 1, 2, 1), (1, 2, 2, 1), (1, 2, 3, 1),
    ]
    assert len(setup.levi_vectors) == 5
    setup = SphericitySetup(emb, 2)
    assert sorted(n_roots(setup)) == [
        (0, 1, 1, 1), (0, 1, 2, 1),
        (1, 1, 1, 1), (1, 1, 2, 1), (1, 2, 2, 1), (1, 2, 3, 1),
    ]
    assert len(setup.levi_vectors) == 2
    setup = SphericitySetup(emb, 3)
    assert sorted(n_roots(setup)) == [
        (0, 0, 1, 1), (0, 1, 1, 1), (0, 1, 2, 1),
        (1, 1, 1, 1), (1, 1, 2, 1), (1, 2, 2, 1), (1, 2, 3, 1),
    ]
    setup = SphericitySetup(emb, 4)
    # the eight cell roots are exactly the short roots through node 4
    assert all(a[3] == 1 for a in n_roots(setup))
    assert setup.n_dim == 8
    assert len(setup.levi_vectors) == 9


def test_e6_a5a1_cell_roots():
    setup = SphericitySetup(CAT.get("E6", "A5xA1"), 1)
    assert sorted(n_roots(setup)) == [
        (1, 1, 1, 1, 0, 0), (1, 1, 1, 1, 1, 0), (1, 1, 1, 1, 1, 1),
        (1, 1, 1, 2, 1, 0), (1, 1, 1, 2, 1, 1), (1, 1, 1, 2, 2, 1),
        (1, 1, 2, 2, 1, 0), (1, 1, 2, 2, 1, 1), (1, 1, 2, 2, 2, 1),
        (1, 1, 2, 3, 2, 1),
    ]


def test_e7_levi_sizes():
    setup = SphericitySetup(CAT.get("E7", "A7"), 7)
    assert (setup.n_dim, len(setup.levi_vectors)) == (15, 16)
    setup = SphericitySetup(CAT.get("E7", "D6xA1"), 7)
    assert (setup.n_dim, len(setup.levi_vectors)) == (16, 20)
    setup = SphericitySetup(CAT.get("E7", "E6xT1"), 2)
    # Levi part of the subgroup Borel at node 2 is an A5
    assert (setup.n_dim, len(setup.levi_vectors)) == (21, 15)


@pytest.mark.parametrize("g,h,node,supports", WITNESSES)
def test_witnesses(g, h, node, supports):
    setup = SphericitySetup(CAT.get(g, h), node)
    x = point_from_neg_roots(setup, supports)
    assert setup.dense_orbit(x)
    assert not setup.dense_orbit({})


@pytest.mark.parametrize("g,h,node", sorted(ORBIT_NUMBERS))
def test_orbit_numbers(g, h, node):
    n_dim, orbit, s = ORBIT_NUMBERS[(g, h, node)]
    setup = SphericitySetup(CAT.get(g, h), node)
    assert setup.n_dim == n_dim
    assert generic_orbit_dim(setup, seed=0, trials=8) == orbit
    assert invariant_ring_dim(setup, seed=0, trials=8) == s


def test_orbit_dim_monotone_in_trials():
    setup = SphericitySetup(CAT.get("F4", "B4"), 2)
    dims = [generic_orbit_dim(setup, seed=3, trials=t) for t in (1, 2, 4, 8)]
    assert dims == sorted(dims)


def test_mode_span_cell_dims():
    for node, expect in [(1, 1), (2, 6), (3, 5), (5, 5), (6, 1)]:
        setup = SphericitySetup(CAT.get("E6", "F4"), node)
        assert setup.n_dim == expect
    for node in (1, 6):
        assert SphericitySetup(CAT.get("E6", "C4"), node).n_dim == 5


def test_typeonly_has_no_setup():
    with pytest.raises(LieError):
        SphericitySetup(CAT.get("E7", "G2xC3"), 1)


@pytest.mark.parametrize("g", ["G2", "F4", "E6", "E7", "E8"])
def test_classification(g):
    rows = classify_group(CAT, g, seed=0)
    got = {(r.h_name, r.node) for r in rows if r.verdict == "spherical"}
    assert got == SPHERICAL[g]
    assert not any(r.verdict == "undecided" for r in rows)
    assert duality_consistent(rows, g)
    # spherical verdicts always carry an exact certificate
    for r in rows:
        if r.verdict == "spherical":
            assert r.certainty == "exact"
        if r.method == "dimension":
            assert r.borel_dim < r.flag_dim and r.certainty == "exact"


def test_classify_row_shape():
    row = classify_pair(CAT.get("G2", "A2"), 1)
    assert isinstance(row, ClassifyRow)
    assert row.verdict == "spherical" and row.method == "orbit"
    assert row.witness, "orbit certificates should record the cell point"
    d = row.as_dict()
    assert d["subgroup"] == "A2" and d["witness"][0].keys() == {"coeff", "root"}
    pruned = classify_pair(CAT.get("G2", "A1xA1"), 1)
    assert pruned.verdict == "not-spherical" and pruned.method == "dimension"


@pytest.mark.parametrize(
    "g,h,node,method,certainty",
    [
        # every kind with generators but the folded one takes the orbit test
        ("E8", "D8", 8, "orbit", "sampled"),
        ("E8", "E7xA1", 8, "orbit", "sampled"),
        ("E6", "F4", 1, "translate", "exact"),
    ],
)
def test_classify_method(g, h, node, method, certainty):
    row = classify_pair(CAT.get(g, h), node)
    assert (row.method, row.certainty) == (method, certainty)


def test_prime_fits_one_cpython_digit():
    # prime; above dim E8 = 248, so exp(ad n) can divide by every k; below
    # 2^30, so every residue is a single CPython digit
    assert 248 < PRIME < 2**30
    assert all(PRIME % d for d in range(2, int(PRIME**0.5) + 1))


def test_classification_deterministic():
    a = [r.as_dict() for r in classify_group(CAT, "E6", seed=7)]
    b = [r.as_dict() for r in classify_group(CAT, "E6", seed=7)]
    assert a == b


TRANSLATE_CASES = [
    ("G2", "A2", 1, True),
    ("G2", "A2", 2, True),
    ("F4", "B4", 1, True),
    ("E6", "A5xA1", 1, True),
    ("E6", "A5xA1", 2, False),
    ("E6", "A5xA1", 6, True),
    ("E6", "D5xT1", 1, True),
    ("E6", "D5xT1", 4, False),
    ("E7", "E6xT1", 2, True),
    ("E7", "E6xT1", 6, False),
]


@pytest.mark.parametrize("g,h,node,expect", TRANSLATE_CASES)
def test_translate_agrees_with_orbit_method(g, h, node, expect):
    emb = CAT.get(g, h)
    ok, _ = generic_translate_test(emb, node, seed=0)
    assert ok is expect
    setup = SphericitySetup(emb, node)
    x, _ = setup.find_witness(seed=0)
    assert (x is not None) is expect


def test_translate_exact_matches_modular():
    emb = CAT.get("E6", "F4")
    for node in (1, 2):
        exact, _ = translate_test_exact(emb, node, seed=5)
        modular, _ = generic_translate_test(emb, node, seed=5)
        assert exact is modular is True


def test_subseed_stable():
    assert subseed(0, "a", 1) == subseed(0, "a", 1)
    assert subseed(0, "a", 1) != subseed(0, "a", 2)
    assert subseed(0, "a", 1) != subseed(1, "a", 1)


@given(st.integers(0, 2**30), st.integers(1, 6))
@settings(max_examples=20, deadline=None)
def test_cell_split_counts(seed, node):
    emb = CAT.get("E6", "A5xA1")
    setup = SphericitySetup(emb, node)
    assert setup.n_dim + removed(setup) == setup.flag_dim
    x = setup.random_point(random.Random(seed))
    assert setup.tangent_rank(x) <= setup.n_dim


def test_witness_projection_roundtrip():
    setup = SphericitySetup(CAT.get("E7", "A7"), 7)
    coeffs = [0] * setup.n_dim
    coeffs[0], coeffs[-1] = 4, -2
    x = setup.point_from_cell(coeffs)
    assert setup.project(x) == coeffs
    assert setup.project(x, mod_prime=True) == [c % PRIME for c in coeffs]
    assert setup.describe_point(x)[0][0] in (4, -2)


ORBIT_PAIRS = [
    (emb, node)
    for g in ("G2", "F4", "E6", "E7", "E8")
    for emb in CAT.entries(g)
    if emb.kind != "typeonly"
    for node in range(1, emb.ambient.rank + 1)
    if emb.borel_dim() >= flag_dimension(emb.ambient, node)
]


@pytest.mark.parametrize(
    "emb,node", ORBIT_PAIRS, ids=[f"{e.ambient}-{e.name}-{n}" for e, n in ORBIT_PAIRS]
)
def test_orbit_rank_mod_prime_equals_rank_over_q(emb, node):
    # the oracle: the same projected tangent rows, reduced exactly over Q
    setup = SphericitySetup(emb, node)
    rng = random.Random(subseed(0, "witness", emb.name, node))

    def rank_q(x, gens):
        span = SpanQ(setup.n_dim)
        for u in gens:
            span.add(setup.project(setup.cb.bracket(u, x)))
        return span.rank

    for _ in range(2):
        x = setup.random_point(rng)
        assert setup.tangent_rank(x) == rank_q(
            x, setup.torus_vectors + setup.levi_vectors
        )
        assert unipotent_rank(setup, x) == rank_q(x, setup.levi_vectors)


@pytest.mark.parametrize(
    "g,h,node", [("E8", "D8", 8), ("E8", "E7xA1", 8), ("E7", "A1xF4", 7)]
)
def test_translate_rank_mod_prime_equals_rank_over_q(g, h, node):
    # the first trial of generic_translate_test on three negative pairs
    emb = CAT.get(g, h)
    cb = chevalley_basis(emb.ambient)
    flag = flag_columns(cb, node)
    rng = random.Random(subseed(0, "translate", emb.name, node))
    n = {k: c for k in flag if (c := rng.randint(-9, 9))}
    cols = cb.ad_columns({k: -c for k, c in n.items()})
    span_q, span_p = SpanQ(len(flag)), SpanMod(len(flag), PRIME)
    torus, raising, _ = lie_h(emb)
    for v in torus + raising:
        w_q = exp_ad_apply_exact(cb, cols, to_dense(cb, v))
        w_p = cb.exp_ad_apply(cols, v, PRIME)
        span_q.add([w_q[k] for k in flag])
        span_p.add([w_p.get(k, 0) for k in flag])
    assert span_p.rank == span_q.rank < len(flag)


ROOT_PAIRS = [
    (emb, node)
    for emb in CAT.records
    if emb.kind in ("subsystem", "levi")
    for node in range(1, emb.ambient.rank + 1)
    if emb.borel_dim() >= flag_dimension(emb.ambient, node)
]


@pytest.mark.parametrize(
    "emb,node", ROOT_PAIRS, ids=[f"{e.ambient}-{e.name}-{n}" for e, n in ROOT_PAIRS]
)
def test_cell_matches_root_oracle(emb, node):
    # for H spanned by root spaces of G the cell is read off the roots
    setup = SphericitySetup(emb, node)
    rs = root_system(emb.ambient)
    i = node - 1
    h_pos = h_positive_roots_in_g(emb)
    assert n_roots(setup) == [
        a for a in rs.positive_roots if a[i] > 0 and a not in h_pos
    ]
    cb = setup.cb
    levi = [[cb.signed_root_of_index(k) for k in v] for v in setup.levi_vectors]
    assert all(len(roots) == 1 for roots in levi)
    assert sorted(r for r, in levi) == sorted(b for b in h_pos if b[i] == 0)


def span_rank(emb, vectors):
    cb = chevalley_basis(emb.ambient)
    span = SpanQ(cb.dim)
    for v in vectors:
        span.add(to_dense(cb, v))
    return span.rank


@pytest.mark.parametrize(
    "emb",
    [e for e in CAT.records if e.kind != "typeonly"],
    ids=lambda e: f"{e.ambient}-{e.name}",
)
def test_lie_and_borel_span_dims(emb):
    # the Levi entries' central torus comes from the coweight
    torus, raising, lowering = lie_h(emb)
    assert span_rank(emb, torus + raising + lowering) == h_dim(emb)
    assert span_rank(emb, torus + raising) == emb.borel_dim()


@pytest.mark.parametrize(
    "emb",
    [e for e in CAT.records if e.kind != "typeonly"],
    ids=lambda e: f"{e.ambient}-{e.name}",
)
def test_lie_h_root_vectors_are_torus_eigenvectors(emb):
    # x_a has weight a under the torus of H: the simple coroot h_j acts on
    # it by <a, alpha_j^vee>, a Levi coweight by 0, and on y_a by the
    # negatives; a walk that brackets with another factor's generator
    # gives a vector of the wrong weight, or none
    cb = chevalley_basis(emb.ambient)
    torus, raising, lowering = lie_h(emb)
    hs = emb.hsys
    assert len(raising) == len(lowering) == hs.n_pos
    assert len(torus) == hs.rank + emb.spec.torus
    for a, x, y in zip(hs.positive_roots, raising, lowering):
        assert x and y, a
        weight = hs.weight_of_root(a) + (0,) * emb.spec.torus
        for t, c in zip(torus, weight):
            assert cb.bracket(t, x) == {k: c * v for k, v in x.items() if c}, a
            assert cb.bracket(t, y) == {k: -c * v for k, v in y.items() if c}, a
