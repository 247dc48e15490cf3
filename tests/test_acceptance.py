"""Acceptance gate: one test per shipped guarantee, at stated budgets.

Criteria, in order: dimension tables, the full classification, explicit
dense-orbit witnesses, invariant-ring dimensions, rule verification,
multiplicity counterexamples (opt in via LIEBRANCH_HEAVY=1), and the
always-on exact property suites.
"""

import os
import random
import time
from collections import Counter

import pytest

from liebranch.branching import discover_generators, load_rules, verify_rule
from liebranch.characters import (
    decompose,
    dominant_character,
    module_dimension,
    multiplicity_of,
    restrict_collapsed,
)
from liebranch.chevalley import chevalley_basis
from liebranch.embeddings import load_catalog
from liebranch.rootsys import RootSystem, SimpleType, TypeSpec, root_system
from liebranch.sphericity import (
    SphericitySetup,
    classify_group,
    duality_consistent,
    flag_dimension,
    generic_translate_test,
    subseed,
)
from oracles import generic_orbit_dim, invariant_ring_dim, point_from_neg_roots

GROUPS = ("G2", "F4", "E6", "E7", "E8")
HEAVY = os.environ.get("LIEBRANCH_HEAVY") == "1"

FLAG_DIMS = {
    "G2": [5, 5],
    "F4": [15, 20, 20, 15],
    "E6": [16, 21, 25, 29, 25, 16],
    "E7": [33, 42, 47, 53, 50, 42, 27],
    "E8": [78, 92, 98, 106, 104, 97, 83, 57],
}

BOREL_DIMS = {
    ("G2", "A2"): 5,
    ("G2", "A1xA1"): 4,
    ("G2", "A1"): 2,
    ("F4", "B4"): 20,
    ("F4", "A1xC3"): 14,
    ("F4", "A2xA2"): 10,
    ("F4", "A3xA1"): 11,
    ("F4", "A1xG2"): 10,
    ("F4", "A1"): 2,
    ("E6", "A5xA1"): 22,
    ("E6", "A2xA2xA2"): 15,
    ("E6", "D5xT1"): 26,
    ("E6", "F4"): 28,
    ("E6", "C4"): 20,
    ("E6", "A2"): 5,
    ("E6", "G2"): 8,
    ("E6", "A2xG2"): 13,
    ("E7", "A7"): 35,
    ("E7", "D6xA1"): 38,
    ("E7", "A5xA2"): 25,
    ("E7", "A3xA3xA1"): 20,
    ("E7", "E6xT1"): 43,
    ("E7", "A1xF4"): 30,
    ("E7", "A1"): 2,
    ("E7", "A2"): 5,
    ("E7", "A1xA1"): 4,
    ("E7", "A1xG2"): 10,
    ("E7", "G2xC3"): 20,
    ("E8", "D8"): 64,
    ("E8", "A8"): 44,
    ("E8", "A7xA1"): 37,
    ("E8", "A5xA2xA1"): 27,
    ("E8", "A4xA4"): 28,
    ("E8", "A3xD5"): 34,
    ("E8", "E6xA2"): 47,
    ("E8", "E7xA1"): 72,
    ("E8", "A1"): 2,
    ("E8", "B2"): 6,
    ("E8", "A1xA2"): 7,
    ("E8", "G2xF4"): 36,
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

# (complement dimension, generic orbit dimension, invariant generators)
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
    ("E6", "D5xT1", 1): (16, 14, 3),
    ("E6", "D5xT1", 2): (11, 8, 4),
    ("E6", "D5xT1", 3): (15, 10, 6),
    ("E6", "D5xT1", 5): (12, 7, 6),
    ("E6", "D5xT1", 6): (8, 6, 3),
    ("E7", "A7", 7): (15, 12, 4),
    ("E7", "D6xA1", 7): (16, 14, 3),
    # the bounded rule of node 1 counts its slack generator
    ("E7", "E6xT1", 1): (17, 14, 4),
    ("E7", "E6xT1", 2): (21, 15, 7),
    ("E7", "E6xT1", 7): (27, 24, 4),
}

KMAX = {"G2": 5, "F4": 3, "E6": 2, "E7": 2}

_ROWS: dict = {}


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


@pytest.fixture(scope="module")
def book():
    return load_rules()


def _rows(catalog):
    if not _ROWS:
        for g in GROUPS:
            _ROWS[g] = classify_group(catalog, g)
    return _ROWS


def test_criterion_1_dimension_tables(catalog):
    t0 = time.monotonic()
    for g, dims in FLAG_DIMS.items():
        got = [flag_dimension(g, i) for i in range(1, len(dims) + 1)]
        assert got == dims, g
    borel = {
        (str(r.ambient), r.name): r.borel_dim()
        for g in GROUPS
        for r in catalog.entries(g)
    }
    assert borel == BOREL_DIMS
    assert time.monotonic() - t0 < 1.0
    print("criterion 1 (dimension tables): PASS")


def test_criterion_2_classification(catalog):
    t0 = time.monotonic()
    rows = _rows(catalog)
    for g in GROUPS:
        found = {
            (r.h_name, r.node) for r in rows[g] if r.verdict == "spherical"
        }
        assert found == SPHERICAL[g], g
        assert not any(r.verdict == "undecided" for r in rows[g]), g
    counts = [len(SPHERICAL[g]) for g in GROUPS]
    assert counts == [2, 4, 14, 5, 0]
    assert time.monotonic() - t0 < 600
    print("criterion 2 (classification): PASS")


def test_criterion_3_explicit_witnesses(catalog):
    t0 = time.monotonic()
    for g, h, node, supports in WITNESSES:
        setup = SphericitySetup(catalog.get(g, h), node)
        x = point_from_neg_roots(setup, supports)
        assert setup.dense_orbit(x), (g, h, node)
        assert not setup.dense_orbit({}), (g, h, node)
    assert time.monotonic() - t0 < 10
    print("criterion 3 (dense-orbit witnesses): PASS")


def test_criterion_4_invariant_ring_dimensions(catalog, book):
    t0 = time.monotonic()
    for (g, h, node), (n_dim, orbit, s) in sorted(ORBIT_NUMBERS.items()):
        setup = SphericitySetup(catalog.get(g, h), node)
        assert setup.n_dim == n_dim, (g, h, node)
        assert generic_orbit_dim(setup) == orbit, (g, h, node)
        assert invariant_ring_dim(setup) == s, (g, h, node)
        gens = discover_generators(catalog.get(g, h), node, 3)
        assert len(gens) == s, (g, h, node)
        rule = book.get(g, h, node).primary
        assert Counter(gens) == Counter(rule.generators), (g, h, node)
    assert time.monotonic() - t0 < 60
    print("criterion 4 (invariant-ring dimensions): PASS")


def _verify_rules(catalog, book, degrees):
    for g, h, node in sorted(book.by_key):
        emb = catalog.get(g, h)
        rule = book.get(g, h, node).primary
        for k in degrees(g):
            assert verify_rule(emb, rule, k), (g, h, node, k)


def test_criterion_5_rule_verification(catalog, book):
    # every degree up to KMAX, and one past it
    t0 = time.monotonic()
    _verify_rules(catalog, book, lambda g: range(1, KMAX[g] + 2))
    assert time.monotonic() - t0 < 1800
    print("criterion 5 (rule verification): PASS")


@pytest.mark.skipif(not HEAVY, reason="set LIEBRANCH_HEAVY=1 to run")
def test_criterion_5_rule_verification_kmax_plus_2(catalog, book):
    # F4>B4 node 2 at k = 5 and E6>F4 nodes 3 and 5 at k = 4 are the
    # slowest, a few seconds each
    t0 = time.monotonic()
    _verify_rules(catalog, book, lambda g: [KMAX[g] + 2])
    assert time.monotonic() - t0 < 1800
    print("criterion 5 at KMAX + 2 (rule verification): PASS")


# Alongside the classes that genuinely reach multiplicity two, each case
# pins down one nearby variant class (a transcription off by one diagram
# node or one coefficient, like the rulevariant lines in rules.txt) at its
# actual multiplicity, so the distinction is asserted rather than assumed.
HEAVY_CASES = [
    # (g, h, weight, variant class, its multiplicity, classes with mult >= 2)
    (
        "E6", "A5xA1", (0, 4, 0, 0, 0, 0),
        ((0, 0, 2, 0, 0, 3), 0), 0,  # odd A1 part cannot occur at all
        [((0, 0, 2, 0, 0, 2), 0)],
    ),
    (
        "E7", "A7", (4, 0, 0, 0, 0, 0, 0),
        ((0, 0, 0, 1, 0, 0, 0), 0), 1,  # mult 2 sits at twice this weight
        [((0, 0, 0, 2, 0, 0, 0), 0)],
    ),
    (
        "E7", "D6xA1", (4, 0, 0, 0, 0, 0, 0),
        ((0, 0, 0, 0, 0, 2, 2), 0), 0,  # other half-spin node: absent
        [((0, 0, 0, 0, 2, 0, 2), 0)],
    ),
    (
        "E7", "A1xF4", (0, 0, 0, 0, 0, 0, 4),
        ((4, 0, 0, 0, 1), 0), 2,  # genuinely mult 2, and not alone
        [((4, 0, 0, 0, 1), 0), ((4, 0, 0, 0, 2), 0)],
    ),
]

E8_EXTERNAL = [
    # Containments kept as recorded data and validated for shape on every
    # run; test_criterion_6_e8_computed recomputes them under the heavy gate.
    ("E8", "E7xA1", (0, 0, 0, 0, 0, 0, 0, 5), ((1, 0, 0, 0, 0, 0, 2, 2), 0)),
    ("E8", "D8", (0, 0, 0, 0, 0, 0, 0, 4), ((0, 0, 0, 0, 0, 0, 0, 1), 0)),
]


@pytest.mark.skipif(not HEAVY, reason="set LIEBRANCH_HEAVY=1 to run")
def test_criterion_6_multiplicity_counterexamples(catalog):
    t0 = time.monotonic()
    for g, h, lam, variant, variant_value, mult2 in HEAVY_CASES:
        emb = catalog.get(g, h)
        assert module_dimension(emb.ambient, lam) > 100_000
        collapsed = restrict_collapsed(emb, lam)
        dec = decompose(emb, lam, collapsed=collapsed)
        assert sorted(k for k, v in dec.items() if v >= 2) == sorted(mult2)
        for key in mult2:
            assert dec[key] == 2, (g, h, key)
            w, q = key
            assert multiplicity_of(emb, lam, w, charge=q, collapsed=collapsed) == 2
        w, q = variant
        assert dec.get(variant, 0) == variant_value, (g, h, variant)
        assert (
            multiplicity_of(emb, lam, w, charge=q, collapsed=collapsed)
            == variant_value
        )
        ps = RootSystem(emb.spec)
        total = sum(m * ps.weyl_dimension(w) for (w, _), m in dec.items())
        assert total == module_dimension(emb.ambient, lam)
    assert time.monotonic() - t0 < 3600
    print("criterion 6 (multiplicity counterexamples): PASS")


def test_criterion_6_e8_recorded_assertions(catalog):
    # Always on: validate the shape of the recorded data.
    for g, h, lam, (target, charge) in E8_EXTERNAL:
        emb = catalog.get(g, h)
        rs = root_system(emb.ambient)
        assert rs.is_dominant(lam)
        assert module_dimension(emb.ambient, lam) > 10**6
        ps = RootSystem(emb.spec)
        assert ps.is_dominant(target)
        assert charge == 0
    print("criterion 6 (recorded external assertions): PASS")


# E8 restrictions computed in full: (g, h, weight, classes with
# multiplicity >= 2).  Each is one decomposition of a module of 79M or
# 2.6G dimensions; the restriction walks only subgroup-dominant points.
E8_COMPUTED = [
    ("E8", "D8", (0, 0, 0, 0, 0, 0, 0, 4), {((0, 0, 0, 0, 0, 0, 0, 2), 0): 2}),
    ("E8", "E7xA1", (0, 0, 0, 0, 0, 0, 0, 4), {((0, 0, 0, 0, 0, 0, 2, 2), 0): 2}),
    (
        "E8", "E7xA1", (0, 0, 0, 0, 0, 0, 0, 5),
        {
            ((0, 0, 0, 0, 0, 0, 2, 4), 0): 2,
            ((0, 0, 0, 0, 0, 0, 3, 3), 0): 2,
            ((1, 0, 0, 0, 0, 0, 2, 2), 0): 2,
        },
    ),
]

# multiplicity of each recorded E8_EXTERNAL class in its restriction
E8_EXTERNAL_MULTIPLICITY = {"E7xA1": 2, "D8": 1}


@pytest.mark.skipif(not HEAVY, reason="set LIEBRANCH_HEAVY=1 to run")
def test_criterion_6_e8_computed(catalog):
    t0 = time.monotonic()
    decs = {}
    for g, h, lam, mult2 in E8_COMPUTED:
        emb = catalog.get(g, h)
        collapsed = restrict_collapsed(emb, lam)
        dec = decompose(emb, lam, collapsed=collapsed)
        decs[(g, h, lam)] = (collapsed, dec)
        assert {k: v for k, v in dec.items() if v >= 2} == mult2, (g, h, lam)
        ps = RootSystem(emb.spec)
        total = sum(m * ps.weyl_dimension(w) for (w, _), m in dec.items())
        assert total == module_dimension(emb.ambient, lam), (g, h, lam)
        for w, q in mult2:
            got = multiplicity_of(emb, lam, w, charge=q, collapsed=collapsed)
            assert got == dec[(w, q)], (g, h, lam, w)
    for g, h, lam, key in E8_EXTERNAL:
        collapsed, dec = decs[(g, h, lam)]
        assert dec.get(key) == E8_EXTERNAL_MULTIPLICITY[h], (g, h, key)
        w, q = key
        got = multiplicity_of(catalog.get(g, h), lam, w, charge=q, collapsed=collapsed)
        assert got == dec[key], (g, h, key)
    assert time.monotonic() - t0 < 600
    print("criterion 6 (E8 restrictions computed): PASS")


def _bracket_sum(cb, terms):
    total: dict = {}
    for u, v in terms:
        for key, c in cb.bracket(u, v).items():
            total[key] = total.get(key, 0) + c
    return {k: c for k, c in total.items() if c}


def test_criterion_7a_jacobi_sampling():
    for g in GROUPS:
        cb = chevalley_basis(SimpleType(g[0], int(g[1])))
        rng = random.Random(subseed(0, "jacobi", g))
        for _ in range(1000):
            i, j, k = (rng.randrange(cb.dim) for _ in range(3))
            u, v, w = {i: 1}, {j: 1}, {k: 1}
            defect = _bracket_sum(
                cb,
                [(u, cb.bracket(v, w)), (v, cb.bracket(w, u)), (w, cb.bracket(u, v))],
            )
            assert defect == {}, (g, i, j, k)
    print("criterion 7a (Jacobi sampling): PASS")


FREUDENTHAL_POOLS = [
    ("A2", 4), ("A5", 3), ("A7", 2),
    ("B4", 3), ("C4", 3), ("D5", 3), ("D6", 2),
    ("G2", 4), ("F4", 3), ("E6", 3), ("E7", 2), ("E8", 2),
]


def test_criterion_7b_freudenthal_vs_weyl():
    for name, budget in FREUDENTHAL_POOLS:
        t = SimpleType(name[0], int(name[1]))
        rs = root_system(t)
        rng = random.Random(subseed(0, "freudenthal", name))
        for _ in range(50):
            lam = [0] * rs.rank
            for _ in range(rng.randint(1, budget)):
                lam[rng.randrange(rs.rank)] += 1
            lam = tuple(lam)
            char = dominant_character(t, lam)
            total = sum(m * rs.orbit_size(mu) for mu, m in char.items())
            assert total == rs.weyl_dimension(lam), (name, lam)
    print("criterion 7b (Freudenthal vs Weyl): PASS")


def test_criterion_7c_decompose_conserves_dimension(catalog, book):
    for g, h, node in sorted(book.by_key):
        emb = catalog.get(g, h)
        rs = root_system(emb.ambient)
        ps = RootSystem(emb.spec)
        for k in (1, 2):
            lam = tuple(k if j == node - 1 else 0 for j in range(rs.rank))
            dec = decompose(emb, lam)
            total = sum(m * ps.weyl_dimension(w) for (w, _), m in dec.items())
            assert total == module_dimension(emb.ambient, lam), (g, h, node, k)
    print("criterion 7c (dimension conservation): PASS")


def test_criterion_7d_orbit_vs_translate(catalog):
    checked = 0
    for g in GROUPS:
        for emb in catalog.entries(g):
            if emb.kind == "typeonly":
                continue
            for node in range(1, emb.ambient.rank + 1):
                if emb.borel_dim() < flag_dimension(g, node):
                    continue
                setup = SphericitySetup(emb, node)
                by_orbit = setup.find_witness(seed=0)[0] is not None
                by_translate = generic_translate_test(emb, node, seed=0)[0]
                assert by_orbit == by_translate, (g, emb.name, node)
                checked += 1
    assert checked >= 25
    print(f"criterion 7d (method agreement, {checked} pairs): PASS")


def test_criterion_7e_duality_involution(catalog):
    rows = _rows(catalog)
    for g in GROUPS:
        assert duality_consistent(rows[g], g), g
        rs = root_system(TypeSpec.parse(g).factors[0])
        for i in range(1, rs.rank + 1):
            assert rs.dual_node(rs.dual_node(i)) == i
    spherical_sets = {
        g: {(r.h_name, r.node) for r in rows[g] if r.verdict == "spherical"}
        for g in GROUPS
    }
    for g, pairs in spherical_sets.items():
        rs = root_system(TypeSpec.parse(g).factors[0])
        assert {(h, rs.dual_node(i)) for h, i in pairs} == pairs
    print("criterion 7e (duality involution): PASS")
