"""Freudenthal characters, restriction, and branching decompositions."""

import functools
import itertools
import math
import operator
import os
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liebranch import characters
from liebranch.characters import (
    decompose,
    dominant_character,
    dominant_character_product,
    dominant_weights,
    module_dimension,
    multiplicity_of,
    restrict_collapsed,
    root_orbits,
)
from liebranch.branching import load_rules
from liebranch.embeddings import load_catalog
from liebranch.rootsys import (
    LieError,
    RootSystem,
    SimpleType,
    TypeSpec,
    parse_weight,
    root_system,
    simple_type,
)
from oracles import (
    dominant_weights_all_roots,
    down_steps_all_roots,
    dual_weight,
    freudenthal_character,
    fundamental,
    orbit_layers,
    restrict_weight,
    root_orbits_bfs,
)

CAT = load_catalog()
HEAVY = os.environ.get("LIEBRANCH_HEAVY") == "1"


def total_dimension(t, lam):
    rs = root_system(t)
    return sum(m * rs.orbit_size(mu) for mu, m in dominant_character(t, lam).items())


FREUDENTHAL_CASES = [
    (SimpleType("A", 1), (7,)),
    (SimpleType("A", 2), (1, 1)),
    (SimpleType("A", 2), (2, 2)),
    (SimpleType("A", 5), (0, 1, 0, 1, 0)),
    (SimpleType("B", 3), (1, 0, 2)),
    (SimpleType("C", 3), (0, 1, 0)),
    (SimpleType("C", 4), (0, 1, 0, 1)),
    (SimpleType("D", 4), (1, 1, 1, 1)),
    (SimpleType("D", 5), (0, 0, 0, 0, 1)),
    (SimpleType("G", 2), (0, 1)),
    (SimpleType("G", 2), (2, 1)),
    (SimpleType("F", 4), (1, 0, 0, 1)),
    (SimpleType("E", 6), (1, 0, 0, 0, 0, 1)),
    (SimpleType("E", 7), (1, 0, 0, 0, 0, 0, 0)),
]


@pytest.mark.parametrize("t,lam", FREUDENTHAL_CASES)
def test_freudenthal_total_matches_weyl_dimension(t, lam):
    assert total_dimension(t, lam) == root_system(t).weyl_dimension(lam)


@given(
    st.sampled_from([SimpleType("A", 2), SimpleType("A", 3), SimpleType("B", 2),
                     SimpleType("B", 3), SimpleType("C", 3), SimpleType("D", 4),
                     SimpleType("G", 2)]),
    st.data(),
)
@settings(max_examples=50, deadline=None)
def test_freudenthal_total_random(t, data):
    lam = tuple(
        data.draw(st.integers(0, 3), label=f"lam{j}") for j in range(t.rank)
    )
    assert total_dimension(t, lam) == root_system(t).weyl_dimension(lam)


def test_zero_weight_multiplicity_in_adjoint_is_rank():
    adjoint = {
        SimpleType("A", 2): (1, 1),
        SimpleType("B", 3): (0, 1, 0),
        SimpleType("G", 2): (0, 1),
        SimpleType("F", 4): (1, 0, 0, 0),
        SimpleType("E", 6): (0, 1, 0, 0, 0, 0),
    }
    for t, lam in adjoint.items():
        ch = dominant_character(t, lam)
        assert ch[(0,) * t.rank] == t.rank


def test_known_inner_multiplicities():
    # sp6: the 14-dimensional fundamental module has a double zero weight
    ch = dominant_character(SimpleType("C", 3), (0, 1, 0))
    assert ch[(0, 0, 0)] == 2
    # sl2 strings are multiplicity-free
    ch = dominant_character(SimpleType("A", 1), (6,))
    assert set(ch.values()) == {1}
    # minuscule modules have a single dominant class
    for t, lam in [
        (SimpleType("B", 4), (0, 0, 0, 1)),
        (SimpleType("D", 5), (0, 0, 0, 0, 1)),
        (SimpleType("E", 6), (1, 0, 0, 0, 0, 0)),
        (SimpleType("E", 7), (0, 0, 0, 0, 0, 0, 1)),
    ]:
        assert dominant_character(t, lam) == {lam: 1}


def test_dominant_weights_shape():
    rs = root_system(SimpleType("G", 2))
    wts = dominant_weights(rs, (1, 1))
    assert next(iter(wts)) == (1, 1)
    assert all(rs.is_dominant(w) for w in wts)
    keys = [rs.height_key(w) for w in wts]
    assert keys == sorted(keys, reverse=True)
    with pytest.raises(LieError):
        dominant_weights(rs, (-1, 0))


# zip used to cut a weight of the wrong length, so the recursion failed
# later with an error that named no input fault
WRONG_LENGTH = [
    (SimpleType("A", 2), (1, 1, 5)),
    (SimpleType("A", 5), (1, 1, 0, 1, 1, 0)),
    (SimpleType("G", 2), (1,)),
]


@pytest.mark.parametrize("t,lam", WRONG_LENGTH)
def test_weight_length_must_be_the_rank(t, lam):
    msg = f"has {len(lam)} coordinates, but {t} has rank {t.rank}$"
    with pytest.raises(LieError, match=msg):
        dominant_weights(root_system(t), lam)
    with pytest.raises(LieError, match=msg):
        dominant_character(t, lam)
    with pytest.raises(LieError, match=msg):
        module_dimension(t, lam)


# a subgroup weight of the wrong length is bad input: zip and
# RootSystem.split would cut it and answer for a shorter weight
@pytest.mark.parametrize(
    "h,nu", [("F4", (0, 0, 0, 1, 5)), ("F4", (1,)), ("D5xT1", (1,) * 6)]
)
def test_subgroup_weight_length_must_be_the_rank(h, nu):
    emb = CAT.get("E6", h)
    msg = f"has {len(nu)} coordinates, but {h} has rank {emb.rank_ss}$"
    with pytest.raises(LieError, match=msg):
        multiplicity_of(emb, (1, 0, 0, 0, 0, 0), nu)
    with pytest.raises(LieError, match=msg):
        dominant_character_product(emb.hsys, nu)
    with pytest.raises(LieError, match=msg):
        emb.hsys.weyl_dimension(nu)


def _catalog_simple_types():
    types = set()
    for r in CAT.records:
        types.add(r.ambient)
        types.update(r.spec.factors)
    return sorted(types, key=str)


@pytest.mark.parametrize("t", _catalog_simple_types(), ids=str)
def test_dominant_weights_root_coefficients(t):
    # the walk's coefficients of lam - mu are what the Freudenthal
    # denominator reads
    rs = root_system(t)
    for i in range(1, rs.rank + 1):
        lam = fundamental(rs, i)
        for mu, c in dominant_weights(rs, lam).items():
            assert all(type(x) is int and x >= 0 for x in c), (lam, mu, c)
            assert rs.weight_of_root(c) == tuple(x - y for x, y in zip(lam, mu))


# -- the orbit sum against the full positive-root sum --------------------------

# E8's 2w_i at the middle nodes take the full-sum oracle seconds each
ORACLE_E8_DOUBLES = (1, 2, 7, 8)


def _oracle_cases():
    for t in _catalog_simple_types():
        rs = root_system(t)
        for i in range(1, rs.rank + 1):
            yield t, fundamental(rs, i)
            if str(t) != "E8" or i in ORACLE_E8_DOUBLES:
                yield t, tuple(2 * x for x in fundamental(rs, i))


@pytest.mark.parametrize(
    "t,lam", list(_oracle_cases()), ids=lambda v: str(v).replace(" ", "")
)
def test_orbit_sum_matches_full_sum(t, lam):
    assert dominant_character(t, lam) == freudenthal_character(root_system(t), lam)


@pytest.mark.parametrize(
    "t,lam", list(_oracle_cases()), ids=lambda v: str(v).replace(" ", "")
)
def test_dominant_weights_match_the_all_roots_walk(t, lam):
    # the same weights and coefficients, ties in height in the same order
    rs = root_system(t)
    got = list(dominant_weights(rs, lam).items())
    assert got == list(dominant_weights_all_roots(rs, lam).items())


@given(
    st.sampled_from([t for t in _catalog_simple_types() if t.rank <= 4]),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_dominant_weights_match_the_all_roots_walk_random(t, data):
    rs = root_system(t)
    lam = tuple(
        data.draw(st.integers(0, 3), label=f"lam{j}") for j in range(rs.rank)
    )
    got = list(dominant_weights(rs, lam).items())
    assert got == list(dominant_weights_all_roots(rs, lam).items())


@given(st.sampled_from(_catalog_simple_types()), st.data())
@settings(max_examples=40, deadline=None)
def test_orbit_sum_matches_full_sum_random(t, data):
    # a sum of up to four fundamental weights, each kept only while
    # dim V stays small
    rs = root_system(t)
    lam = (0,) * rs.rank
    for _ in range(data.draw(st.integers(1, 4), label="terms")):
        i = data.draw(st.integers(1, rs.rank), label="node")
        nxt = tuple(x + y for x, y in zip(lam, fundamental(rs, i)))
        if rs.weyl_dimension(nxt) <= 200_000:
            lam = nxt
    assert dominant_character(t, lam) == freudenthal_character(rs, lam)


@pytest.mark.parametrize(
    "t",
    _catalog_simple_types()
    + [TypeSpec.parse(s) for s in ("A5xA1", "D5xT1", "E6xA2", "E7xA1")],
    ids=str,
)
def test_root_orbits_partition_the_positive_roots(t):
    rs = root_system(t)
    for size in range(rs.rank + 1):
        for zeros in itertools.combinations(range(rs.rank), size):
            orbits = root_orbits(rs, zeros)
            assert sum(c for _, _, c in orbits) == rs.n_pos, zeros
            for a, wa, _ in orbits:
                assert a in rs.index and wa == rs.weight_of_root(a)
                # the highest root of an orbit is W_mu-dominant
                assert all(wa[i] >= 0 for i in zeros), (zeros, a)
            # the exact partition: a table that merged two orbits of one
            # root length passes the checks above, not this one
            assert set(orbits) == root_orbits_bfs(rs, zeros), zeros
    # no zero labels: W_mu is trivial, every root is its own orbit
    assert sorted(c for _, _, c in root_orbits(rs, ())) == [1] * rs.n_pos


@pytest.mark.parametrize(
    "t,sizes",
    [
        (SimpleType("G", 2), [3, 3]),
        (SimpleType("F", 4), [12, 12]),
        (SimpleType("B", 4), [4, 12]),
        (SimpleType("E", 8), [120]),
    ],
    ids=str,
)
def test_root_orbits_at_zero_weight(t, sizes):
    # W_mu = W: one orbit per root length
    rs = root_system(t)
    orbits = root_orbits(rs, tuple(range(rs.rank)))
    assert sorted(c for _, _, c in orbits) == sizes


MEMO_CASES = {
    "B4": [(1, 0, 0, 0), (0, 1, 0, 0), (0, 2, 0, 0), (1, 0, 0, 1), (0, 0, 1, 1)],
    "F4": [(1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2), (1, 0, 0, 1), (0, 0, 1, 0)],
    "E6": [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1),
           (2, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)],
    "E7": [(0, 0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 2),
           (1, 0, 0, 0, 0, 0, 1)],
}


def _strings_of_orbits(rs, orbits):
    """The string entries of `_zero_label_tables` built from (root,
    weight, count) orbit triples."""
    return {
        (wa, tuple(c * x for x in map(operator.mul, rs.d, a)), c * rs.pair_wr(wa, a))
        for a, wa, c in orbits
    }


def test_conjugate_memo_is_transparent():
    # the characters of one type share its memo of dominant conjugates,
    # down-steps and zero-label tables (B4 and F4 have weights of one
    # length and one rank): filling the memos in one order and then in
    # the other changes no character
    cases = [(name, lam) for name, lams in MEMO_CASES.items() for lam in lams]
    want = {
        case: freudenthal_character(root_system(simple_type(case[0])), case[1])
        for case in cases
    }
    systems = {name: root_system(simple_type(name)) for name in MEMO_CASES}
    for order in (cases, cases[::-1]):
        characters._memo.cache_clear()
        for name, lam in order:
            rs = systems[name]
            assert dominant_character(simple_type(name), lam) == want[name, lam]
            assert list(dominant_weights(rs, lam).items()) == list(
                dominant_weights_all_roots(rs, lam).items()
            )
        # one memo per type reached, and none shared by two types
        assert characters._memo.cache_info().currsize == len(MEMO_CASES)
        memos = {name: characters._memo(rs) for name, rs in systems.items()}
        assert characters._memo.cache_info().currsize == len(MEMO_CASES)
        assert memos["B4"] is not memos["F4"]
        assert len({id(m) for m in memos.values()}) == len(MEMO_CASES)
        for name, memo in memos.items():
            rs = systems[name]
            assert sorted(memo.chars) == sorted(MEMO_CASES[name])
            assert memo.conj
            for nu, dom in memo.conj.items():
                assert dom == rs.dominant_signed(nu)[0], (name, nu)
            # each stored table is a fresh build, its orbits the BFS ones
            for zeros, (fitted, strings) in memo.tables.items():
                assert (fitted, strings) == characters._zero_label_tables(rs, zeros)
                assert set(strings) == _strings_of_orbits(
                    rs, root_orbits_bfs(rs, zeros)
                ), (name, zeros)
            # each stored step list is the all-roots filter at its weight,
            # and its strings those of the weight's zero labels
            assert memo.down
            for mu, (steps, strings) in memo.down.items():
                assert steps == down_steps_all_roots(rs, mu), (name, mu)
                zeros = tuple(i for i, x in enumerate(mu) if x == 0)
                assert strings == memo.tables[zeros][1], (name, mu)


def test_cached_character_is_read_only():
    # the character is the memo's own: a caller's write must not reach
    # the decompositions that read it later
    g2 = SimpleType("G", 2)
    emb = CAT.get("G2", "A2")
    want = decompose(emb, (1, 0))
    ch = dominant_character(g2, (1, 0))
    with pytest.raises(TypeError):
        ch[(0, 0)] = 5
    assert dominant_character(g2, (1, 0)) == {(1, 0): 1, (0, 0): 1}
    assert decompose(emb, (1, 0)) == want == {
        ((1, 0), 0): 1, ((0, 1), 0): 1, ((0, 0), 0): 1
    }


def test_character_duality():
    t = SimpleType("A", 3)
    rs = root_system(t)
    lam = (2, 0, 1)
    ch = dominant_character(t, lam)
    dual = dominant_character(t, dual_weight(rs, lam))
    assert dual == {dual_weight(rs, mu): m for mu, m in ch.items()}


def test_product_character():
    ps = RootSystem(CAT.get("E6", "A5xA1").spec)
    ch = dominant_character_product(ps, (1, 0, 0, 0, 1, 2))
    total = sum(m * ps.orbit_size(mu) for mu, m in ch.items())
    assert total == ps.weyl_dimension((1, 0, 0, 0, 1, 2))


RESTRICTION_MASS_CASES = [
    ("G2", "A2", (1, 0)),
    ("G2", "A2", (0, 2)),
    ("F4", "B4", (1, 0, 0, 0)),
    ("E6", "F4", (0, 0, 0, 0, 0, 1)),
    ("E6", "D5xT1", (1, 0, 0, 0, 0, 0)),
    ("E7", "E6xT1", (0, 0, 0, 0, 0, 0, 1)),
]


@pytest.mark.parametrize("g,h,lam", RESTRICTION_MASS_CASES)
def test_restriction_preserves_dimension(g, h, lam):
    emb = CAT.get(g, h)
    ps = RootSystem(emb.spec)
    char = restrict_collapsed(emb, lam)
    total = sum(m * ps.orbit_size(w) for (w, _), m in char.items())
    assert total == root_system(emb.ambient).weyl_dimension(lam)


def full_orbit_restriction(emb, lam):
    """Oracle: stream the whole Weyl orbit of every dominant weight, restrict
    each point by the rows directly, fold each restricted weight into the
    dominant chamber of the subgroup, and divide the mass of each class by
    the size of its subgroup orbit."""
    rs = root_system(emb.ambient)
    ps = RootSystem(emb.spec)
    out = {}
    for mu, m in dominant_character(emb.ambient, lam).items():
        for layer in orbit_layers(rs, mu):
            for nu in layer:
                ss, q = restrict_weight(emb, nu)
                key = (ps.dominant_signed(ss)[0], q or 0)
                out[key] = out.get(key, 0) + m
    char = {}
    for (dom, q), mass in out.items():
        mult, rem = divmod(mass, ps.orbit_size(dom))
        assert rem == 0, (emb, lam, dom, q, mass)
        char[(dom, q)] = mult
    return char


def _is_equal_rank(emb):
    n = len(emb.weight_image().rows[: emb.rank_ss]) + (emb.coweight is not None)
    return n == emb.ambient.rank


def _orbit_weights(t, lam):
    rs = root_system(t)
    return sum(rs.orbit_size(mu) for mu in dominant_character(t, lam))


# the degrees up to which criterion 5 verifies each rule
RULE_KMAX = {"G2": 5, "F4": 3, "E6": 2, "E7": 2}


def _rule_restrictions():
    out = []
    for g, h, node in sorted(load_rules().by_key):
        emb = CAT.get(g, h)
        if not _is_equal_rank(emb):
            continue
        rs = root_system(emb.ambient)
        for k in range(1, RULE_KMAX[g] + 1):
            for i in sorted({node, rs.dual_node(node)}):
                out.append((emb, tuple(k if j == i - 1 else 0 for j in range(rs.rank))))
    return out


def _fundamental_restrictions(bound):
    out = []
    for emb in CAT.records:
        if emb.kind == "typeonly" or not _is_equal_rank(emb):
            continue
        rs = root_system(emb.ambient)
        for i in range(1, rs.rank + 1):
            lam = fundamental(rs, i)
            if _orbit_weights(emb.ambient, lam) <= bound:
                out.append((emb, lam))
    return out


def test_cone_restriction_matches_full_orbit_on_rules():
    cases = _rule_restrictions()
    # 46 (rule, k) checks on 18 equal-rank triples; 58 highest weights
    # once the dual node is counted
    assert len(cases) == 58
    for emb, lam in cases:
        assert restrict_collapsed(emb, lam) == full_orbit_restriction(emb, lam), (
            emb, lam,
        )


def test_cone_restriction_matches_full_orbit_on_fundamentals():
    cases = _fundamental_restrictions(bound=20_000)
    assert len({(str(e.ambient), e.name) for e, _ in cases}) == 22
    assert len(cases) == 92
    for emb, lam in cases:
        assert restrict_collapsed(emb, lam) == full_orbit_restriction(emb, lam), (
            emb, lam,
        )


def _folded_restrictions():
    """Every fundamental weight and its double on the three folded
    entries, split by whether their orbits hold more than 40,000 weights
    (the oracle walks them point by point)."""
    small, large = [], []
    for g, h in [("E6", "F4"), ("E6", "C4"), ("E7", "A1xF4")]:
        emb = CAT.get(g, h)
        assert not _is_equal_rank(emb)
        rs = root_system(emb.ambient)
        for i in range(1, rs.rank + 1):
            for k in (1, 2):
                lam = tuple(k * x for x in fundamental(rs, i))
                big = _orbit_weights(emb.ambient, lam) > 40_000
                (large if big else small).append((emb, lam))
    return small, large


FOLDED_SMALL, FOLDED_LARGE_ORBITS = _folded_restrictions()


def test_restriction_matches_full_orbit_on_non_equal_rank():
    # the folded entries have no cone to walk: their restriction takes
    # the weights with a dominant image from the ball of lam, and the
    # oracle keeps the dominant images of the full orbits
    assert len(FOLDED_SMALL) == 35
    for emb, lam in FOLDED_SMALL:
        assert restrict_collapsed(emb, lam) == full_orbit_restriction(emb, lam), (
            emb, lam,
        )


@pytest.mark.skipif(not HEAVY, reason="set LIEBRANCH_HEAVY=1 to run")
def test_restriction_matches_full_orbit_on_non_equal_rank_large():
    # E7 > A1xF4 at 2w3, 2w4 and 2w5: 158k to 1.8M orbit weights, about
    # 28 s for the oracle in all
    assert [(e.name, lam) for e, lam in FOLDED_LARGE_ORBITS] == [
        ("A1xF4", (0, 0, 2, 0, 0, 0, 0)),
        ("A1xF4", (0, 0, 0, 2, 0, 0, 0)),
        ("A1xF4", (0, 0, 0, 0, 2, 0, 0)),
    ]
    for emb, lam in FOLDED_LARGE_ORBITS:
        assert restrict_collapsed(emb, lam) == full_orbit_restriction(emb, lam), (
            emb, lam,
        )


# the folded case of the heavy benchmark workload, E6 > F4 at its
# highest degree in criterion 5, and at the degree of the heavy gate
# (40,685, 44,083 and 207,684 orbit points)
FOLDED_LARGE = [
    ("E7", "A1xF4", (0, 0, 0, 0, 0, 0, 4)),
    ("E6", "F4", (0, 0, 3, 0, 0, 0)),
    ("E6", "F4", (0, 0, 4, 0, 0, 0)),
]


@pytest.mark.parametrize("g,h,lam", FOLDED_LARGE)
def test_folded_restriction_matches_full_orbit_on_large_orbits(g, h, lam):
    emb = CAT.get(g, h)
    assert _orbit_weights(emb.ambient, lam) > 40_000
    assert restrict_collapsed(emb, lam) == full_orbit_restriction(emb, lam)


# (g, h, highest weight) -> {(subgroup weight, charge): multiplicity}
DECOMPOSE_GOLDENS = {
    ("G2", "A2", (1, 0)): {
        ((0, 0), 0): 1, ((1, 0), 0): 1, ((0, 1), 0): 1,
    },
    ("G2", "A2", (0, 1)): {
        ((1, 0), 0): 1, ((0, 1), 0): 1, ((1, 1), 0): 1,
    },
    ("F4", "B4", (0, 0, 0, 1)): {
        ((0, 0, 0, 0), 0): 1, ((1, 0, 0, 0), 0): 1, ((0, 0, 0, 1), 0): 1,
    },
    ("F4", "B4", (1, 0, 0, 0)): {
        ((0, 1, 0, 0), 0): 1, ((0, 0, 0, 1), 0): 1,
    },
    ("E6", "A5xA1", (1, 0, 0, 0, 0, 0)): {
        ((1, 0, 0, 0, 0, 1), 0): 1, ((0, 0, 0, 1, 0, 0), 0): 1,
    },
    ("E6", "F4", (0, 0, 0, 0, 0, 1)): {
        ((0, 0, 0, 0), 0): 1, ((0, 0, 0, 1), 0): 1,
    },
    ("E6", "F4", (0, 1, 0, 0, 0, 0)): {
        ((1, 0, 0, 0), 0): 1, ((0, 0, 0, 1), 0): 1,
    },
    ("E6", "F4", (0, 0, 0, 0, 1, 0)): {
        ((1, 0, 0, 0), 0): 1, ((0, 0, 1, 0), 0): 1, ((0, 0, 0, 1), 0): 1,
    },
    ("E6", "C4", (0, 0, 0, 0, 0, 1)): {
        ((0, 1, 0, 0), 0): 1,
    },
    ("E6", "C4", (0, 0, 0, 0, 0, 2)): {
        ((0, 0, 0, 0), 0): 1, ((0, 2, 0, 0), 0): 1, ((0, 0, 0, 1), 0): 1,
    },
    ("E6", "D5xT1", (0, 0, 0, 0, 0, 1)): {
        ((0, 0, 0, 0, 0), -4): 1, ((1, 0, 0, 0, 0), 2): 1,
        ((0, 0, 0, 0, 1), -1): 1,
    },
    ("E7", "A7", (0, 0, 0, 0, 0, 0, 1)): {
        ((0, 1, 0, 0, 0, 0, 0), 0): 1, ((0, 0, 0, 0, 0, 1, 0), 0): 1,
    },
    ("E7", "A7", (0, 0, 0, 0, 0, 0, 2)): {
        ((0, 0, 0, 0, 0, 0, 0), 0): 1, ((0, 2, 0, 0, 0, 0, 0), 0): 1,
        ((0, 0, 0, 0, 0, 2, 0), 0): 1, ((0, 1, 0, 0, 0, 1, 0), 0): 1,
        ((0, 0, 0, 1, 0, 0, 0), 0): 1,
    },
    ("E7", "D6xA1", (0, 0, 0, 0, 0, 0, 1)): {
        ((1, 0, 0, 0, 0, 0, 1), 0): 1, ((0, 0, 0, 0, 0, 1, 0), 0): 1,
    },
    ("E7", "E6xT1", (0, 0, 0, 0, 0, 0, 1)): {
        ((0, 0, 0, 0, 0, 0), 3): 1, ((0, 0, 0, 0, 0, 1), 1): 1,
        ((1, 0, 0, 0, 0, 0), -1): 1, ((0, 0, 0, 0, 0, 0), -3): 1,
    },
    ("E7", "E6xT1", (1, 0, 0, 0, 0, 0, 0)): {
        ((0, 1, 0, 0, 0, 0), 0): 1, ((1, 0, 0, 0, 0, 0), 2): 1,
        ((0, 0, 0, 0, 0, 1), -2): 1, ((0, 0, 0, 0, 0, 0), 0): 1,
    },
}


@pytest.mark.parametrize("g,h,lam", sorted(DECOMPOSE_GOLDENS))
def test_decompose_goldens(g, h, lam):
    assert decompose(CAT.get(g, h), lam) == DECOMPOSE_GOLDENS[(g, h, lam)]


DIMENSION_CONSERVATION = [
    ("G2", "A2", (2, 1)),
    ("G2", "A2", (0, 3)),
    ("F4", "B4", (0, 0, 0, 3)),
    ("F4", "B4", (1, 0, 0, 1)),
    ("E6", "A5xA1", (2, 0, 0, 0, 0, 1)),
    ("E6", "F4", (1, 0, 0, 0, 0, 1)),
    ("E6", "C4", (0, 0, 0, 0, 0, 3)),
    ("E6", "D5xT1", (1, 1, 0, 0, 0, 0)),
    ("E7", "A7", (0, 0, 0, 0, 0, 0, 3)),
    ("E7", "D6xA1", (0, 0, 0, 0, 0, 0, 2)),
    ("E7", "E6xT1", (0, 1, 0, 0, 0, 0, 0)),
    ("E7", "A1xF4", (0, 0, 0, 0, 0, 0, 2)),
]


@pytest.mark.parametrize("g,h,lam", DIMENSION_CONSERVATION)
def test_decompose_conserves_dimension(g, h, lam):
    emb = CAT.get(g, h)
    ps = RootSystem(emb.spec)
    out = decompose(emb, lam)
    total = sum(c * ps.weyl_dimension(w) for (w, _), c in out.items())
    assert total == root_system(emb.ambient).weyl_dimension(lam)


@functools.lru_cache(maxsize=None)
def _factor_racah_terms(s, part):
    """{dominant conjugate of part + rho - w rho: signed count} over every
    w in the Weyl group of one factor, signed by layer depth."""
    counts = Counter()
    for depth, layer in enumerate(orbit_layers(s, s.rho)):
        for w in layer:
            dom, _ = s.dominant_signed(tuple(t + 1 - x for t, x in zip(part, w)))
            counts[dom] += (-1) ** depth
    return [(d, c) for d, c in counts.items() if c]


def full_racah_sum(emb, target, charge, collapsed):
    """The alternating sum of `multiplicity_of` over every w in W_H, with
    no cut: the reference the cut sum is checked against.  W_H is the
    product of the factors' Weyl groups and the dominant conjugate is
    taken factor by factor, so each factor's terms are gathered first."""
    ps = emb.hsys
    total = 0
    for combo in itertools.product(
        *(
            _factor_racah_terms(root_system(f), p)
            for f, p in zip(ps.factors, ps.split(target))
        )
    ):
        xi = sum((d for d, _ in combo), ())
        total += math.prod(c for _, c in combo) * collapsed.get((xi, charge), 0)
    return total


def test_racah_matches_decompose():
    emb = CAT.get("E7", "A7")
    lam = (0, 0, 0, 0, 0, 0, 2)
    collapsed = restrict_collapsed(emb, lam)
    full = decompose(emb, lam, collapsed=collapsed)
    for w in [
        (0, 0, 0, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0),
        (1, 0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 1, 0),
    ]:
        assert multiplicity_of(emb, lam, w, collapsed=collapsed) == full.get((w, 0), 0)


# (group, subgroup, ambient weight, targets): the classes of the
# restriction and one class that does not occur.  The E7>A7 targets
# include every target of test_racah_matches_decompose.
RACAH_FULL_SUM_CASES = [
    ("E7", "A7", "2w7", ["0", "2l6", "l4", "l2+l6", "2l2", "l1+l7"]),
    ("E8", "A7xA1", "w8", ["2l8", "l6+l8", "l4", "l2+l8", "l1+l7", "l4+l8"]),
]


@pytest.mark.parametrize("g,h,lam_text,targets", RACAH_FULL_SUM_CASES)
def test_racah_cut_matches_full_sum(g, h, lam_text, targets):
    emb = CAT.get(g, h)
    lam, _ = parse_weight(lam_text, emb.ambient.rank, "w")
    collapsed = restrict_collapsed(emb, lam)
    full = decompose(emb, lam, collapsed=collapsed)
    for text in targets:
        w, _ = parse_weight(text, emb.rank_ss, "l")
        got = multiplicity_of(emb, lam, w, collapsed=collapsed)
        assert got == full_racah_sum(emb, w, 0, collapsed), (g, h, text)
        assert got == full.get((w, 0), 0), (g, h, text)


def test_racah_charge_sectors():
    emb = CAT.get("E7", "E6xT1")
    lam = (0, 0, 0, 0, 0, 0, 1)
    collapsed = restrict_collapsed(emb, lam)
    zero = (0, 0, 0, 0, 0, 0)
    assert multiplicity_of(emb, lam, zero, charge=3, collapsed=collapsed) == 1
    assert multiplicity_of(emb, lam, zero, charge=-3, collapsed=collapsed) == 1
    assert multiplicity_of(emb, lam, zero, charge=0, collapsed=collapsed) == 0
    assert multiplicity_of(emb, lam, (0, 0, 0, 0, 0, 1), charge=1, collapsed=collapsed) == 1
    # every charge sector, and the empty sector 0, against the full sum
    for q in sorted({q for _, q in collapsed} | {0}):
        for w in sorted({w for w, c in collapsed if c == q} | {zero}):
            assert multiplicity_of(emb, lam, w, charge=q, collapsed=collapsed) == (
                full_racah_sum(emb, w, q, collapsed)
            ), (w, q)


def test_multiplicity_two_counterexamples():
    # the cheapest pair with genuine multiplicity: top component class
    # appears twice in the fourth power of the adjoint-type generator
    emb = CAT.get("E6", "A5xA1")
    lam = (0, 4, 0, 0, 0, 0)
    collapsed = restrict_collapsed(emb, lam)
    assert multiplicity_of(emb, lam, (0, 0, 2, 0, 0, 2), collapsed=collapsed) == 2
    # the A1 charge of a class is tied to the parity of its A5 part, so
    # an odd A1 weight over the even class cannot occur
    assert multiplicity_of(emb, lam, (0, 0, 2, 0, 0, 3), collapsed=collapsed) == 0
    for w in [(0, 0, 2, 0, 0, 2), (0, 0, 2, 0, 0, 3)]:
        assert multiplicity_of(emb, lam, w, collapsed=collapsed) == (
            full_racah_sum(emb, w, 0, collapsed)
        )


def test_decompose_rejects_a_non_character():
    emb = CAT.get("E6", "F4")
    lam = (0, 0, 0, 0, 1, 0)
    collapsed = restrict_collapsed(emb, lam)

    def order(kq):  # the peel order of decompose
        return emb.hsys.height_key(kq[0]), kq

    top, low = max(collapsed, key=order), min(collapsed, key=order)
    assert decompose(emb, lam, collapsed=collapsed)  # the genuine one peels
    short = dict(collapsed)
    short[low] -= 1
    with pytest.raises(LieError, match="oversubtracted"):
        decompose(emb, lam, collapsed=short)
    for bad in (0, -1):
        with pytest.raises(LieError, match=f"gives {bad}$"):
            decompose(emb, lam, collapsed={**collapsed, top: bad})


def test_entry_without_generators_fails_before_freudenthal(monkeypatch):
    def unreachable(*args):
        raise AssertionError("Freudenthal ran for an entry without generators")

    monkeypatch.setattr("liebranch.characters.dominant_character", unreachable)
    with pytest.raises(LieError):
        restrict_collapsed(CAT.get("E8", "G2xF4"), (0, 0, 0, 0, 0, 0, 0, 9))


def test_multiplicity_free_flags():
    def multiplicity_free(g, h, lam):
        return all(c == 1 for c in decompose(CAT.get(g, h), lam).values())

    assert multiplicity_free("E6", "C4", (0, 0, 0, 0, 0, 2))
    assert multiplicity_free("E7", "A7", (0, 0, 0, 0, 0, 0, 2))
    assert not multiplicity_free("E6", "A5xA1", (0, 4, 0, 0, 0, 0))


def test_bad_inputs():
    emb = CAT.get("G2", "A2")
    with pytest.raises(LieError):
        decompose(emb, (-1, 0))
    with pytest.raises(LieError):
        multiplicity_of(emb, (1, 0), (0, -1))
    with pytest.raises(LieError):
        decompose(CAT.get("E7", "G2xC3"), (0, 0, 0, 0, 0, 0, 1))


def dominant_weights_up_to(ps, top):
    """Every dominant weight of ps with height_key at most top."""
    seen = {(0,) * ps.rank}
    frontier = list(seen)
    while frontier:
        nxt = []
        for mu in frontier:
            for i in range(ps.rank):
                nu = mu[:i] + (mu[i] + 1,) + mu[i + 1 :]
                if nu not in seen and ps.height_key(nu) <= top:
                    seen.add(nu)
                    nxt.append(nu)
        frontier = nxt
    return sorted(seen)


RACAH_SMALL_ENTRIES = [
    (g, h) for g in ("G2", "F4", "E6")
    for h in [r.name for r in CAT.entries(g) if r.kind != "typeonly"]
]


@settings(max_examples=30, deadline=None)
@given(
    entry=st.sampled_from(RACAH_SMALL_ENTRIES),
    data=st.data(),
)
def test_racah_cut_matches_full_sum_on_small_weights(entry, data):
    emb = CAT.get(*entry)
    ps = emb.hsys
    rank = emb.ambient.rank
    # E6 weights stay fundamental: at 2w4 there are 18k targets up to the top
    nodes = data.draw(st.lists(
        st.integers(0, rank - 1), min_size=1, max_size=2 if rank < 6 else 1
    ))
    lam = tuple(nodes.count(i) for i in range(rank))
    collapsed = restrict_collapsed(emb, lam)
    charges = sorted({q for _, q in collapsed})
    for q in charges:
        top = max(ps.height_key(w) for w, c in collapsed if c == q)
        for w in dominant_weights_up_to(ps, top):
            assert multiplicity_of(emb, lam, w, charge=q, collapsed=collapsed) == (
                full_racah_sum(emb, w, q, collapsed)
            ), (entry, lam, w, q)
    # a class above every restricted weight, and a charge that does not occur
    top_w = max((w for w, _ in collapsed), key=ps.height_key)
    above = tuple(x + 1 for x in top_w)
    for w, q in [(above, charges[0]), (top_w, charges[-1] + 1)]:
        assert multiplicity_of(emb, lam, w, charge=q, collapsed=collapsed) == 0
        assert full_racah_sum(emb, w, q, collapsed) == 0


# E8 pairs whose full sum is too slow for every run: (subgroup, ambient
# weight, targets), the classes of the restriction and one that does not
# occur.  E8>A8 has one factor, so its full sum gathers nothing.
RACAH_FULL_SUM_HEAVY = [
    ("E6xA2", "w8", ["l7+l8", "l6+l7", "l2", "l1+l8", "l2+l7"]),
    ("A8", "w8", ["l1+l8", "l3", "l6", "l2+l7"]),
]


@pytest.mark.skipif(not HEAVY, reason="set LIEBRANCH_HEAVY=1 to run")
@pytest.mark.parametrize("h,lam_text,targets", RACAH_FULL_SUM_HEAVY)
def test_racah_cut_matches_full_sum_e8(h, lam_text, targets):
    test_racah_cut_matches_full_sum("E8", h, lam_text, targets)


def _racah_costs(ps, target):
    """The per-node step costs of the Racah walk of `multiplicity_of`."""
    return [(t + 1) * n for t, n in zip(target, ps.simple_qnorms)]


def _racah_walk_brute(ps, target, budget):
    """(w rho, sign(w)) over every w in W_H with Q(target + rho - w rho)
    - Q(target) <= budget, from the whole orbit of rho: the reference."""
    base = ps.qnorm(target)
    return sorted(
        (x, ps.dominant_signed(x)[1])
        for layer in orbit_layers(ps, ps.rho)
        for x in layer
        if ps.qnorm(tuple(t + 1 - v for t, v in zip(target, x))) - base <= budget
    )


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(["A2xA1", "B3", "C3", "G2", "A1xF4"]), data=st.data())
def test_racah_walk_keeps_the_weyl_group_within_the_budget(spec, data):
    ps = root_system(TypeSpec.parse(spec))
    target = tuple(data.draw(st.integers(0, 2)) for _ in range(ps.rank))
    budget = data.draw(st.integers(-2, 2 * ps.qnorm(ps.rho) + 2 * ps.qnorm(target)))
    got = sorted(ps.weyl_orbit_signed(ps.rho, budget, _racah_costs(ps, target)))
    assert got == _racah_walk_brute(ps, target, budget)


CATALOG_SPECS = sorted(
    {str(e.spec) for g in ("G2", "F4", "E6", "E7", "E8") for e in CAT.entries(g)}
)


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(CATALOG_SPECS), data=st.data())
def test_racah_step_cost_is_one_product(spec, data):
    # one step x -> s_i x adds x_i (t_i + 1) Q(alpha_i) to Q(t + rho - x),
    # on any integer x, and Q is W-invariant
    ps = root_system(TypeSpec.parse(spec))
    n = ps.rank
    target = tuple(data.draw(st.integers(0, 3)) for _ in range(n))
    x = tuple(data.draw(st.integers(-4, 4)) for _ in range(n))
    i = data.draw(st.integers(0, n - 1))
    y = tuple(v - x[i] * row[i] for v, row in zip(x, ps.C))  # s_i x
    xi, eta = (tuple(t + 1 - v for t, v in zip(target, z)) for z in (x, y))
    step = ps.qnorm(eta) - ps.qnorm(xi)
    assert step == x[i] * _racah_costs(ps, target)[i]
    assert ps.qnorm(x) == ps.qnorm(y)
    assert ps.simple_qnorms[i] == ps.qnorm([row[i] for row in ps.C]) > 0


# E8 queries that the height cut alone summed over 50,630 and 29,523 terms
@pytest.mark.parametrize(
    "h,target_text", [("E7xA1", "2l7+2l8"), ("D8", "2l8")]
)
def test_racah_e8_queries_match_decompose(h, target_text):
    emb = CAT.get("E8", h)
    lam = (0, 0, 0, 0, 0, 0, 0, 4)
    target, _ = parse_weight(target_text, emb.rank_ss, "l")
    collapsed = restrict_collapsed(emb, lam)
    want = decompose(emb, lam, collapsed=collapsed)[(target, 0)]
    assert want == 2
    assert multiplicity_of(emb, lam, target, collapsed=collapsed) == want


# H that is not simply laced, at k >= 4: every key of the restriction
@pytest.mark.parametrize(
    "g,h,lam",
    [
        pytest.param(
            "F4", "B4", (0, 5, 0, 0),
            marks=pytest.mark.skipif(not HEAVY, reason="set LIEBRANCH_HEAVY=1 to run"),
        ),
        ("E6", "F4", (0, 0, 4, 0, 0, 0)),
    ],
)
def test_racah_matches_decompose_at_every_key(g, h, lam):
    emb = CAT.get(g, h)
    collapsed = restrict_collapsed(emb, lam)
    full = decompose(emb, lam, collapsed=collapsed)
    for w, q in collapsed:
        got = multiplicity_of(emb, lam, w, charge=q, collapsed=collapsed)
        assert got == full.get((w, q), 0), (w, q)


@pytest.fixture
def racah_walk(monkeypatch):
    """Every (w rho, sign) that the Racah sums of the test walk."""
    walked = []
    walk = RootSystem.weyl_orbit_signed

    def recorded(self, *args):
        for item in walk(self, *args):
            walked.append(item)
            yield item

    monkeypatch.setattr(RootSystem, "weyl_orbit_signed", recorded)
    return walked


@pytest.mark.parametrize(
    "g,h,lam", [("F4", "B4", (0, 1, 0, 0)), ("E6", "A5xA1", (0, 1, 0, 0, 0, 0))]
)
def test_racah_sum_walks_exactly_the_budget(racah_walk, g, h, lam):
    # every key, and one target past the last key: the sum walks the w
    # with Q(target + rho - w rho) at most the largest Q of a key, and no
    # other
    emb = CAT.get(g, h)
    ps = emb.hsys
    collapsed = restrict_collapsed(emb, lam)
    top = max(ps.qnorm(w) for w, _ in collapsed)
    targets = sorted(w for w, _ in collapsed)
    targets.append(tuple(x + 1 for x in targets[-1]))
    for w in targets:
        racah_walk.clear()
        multiplicity_of(emb, lam, w, collapsed=collapsed)
        assert sorted(racah_walk) == _racah_walk_brute(ps, w, top - ps.qnorm(w)), w


def test_racah_empty_budget_keeps_no_terms(racah_walk):
    emb = CAT.get("E7", "E6xT1")
    lam = (0, 0, 0, 0, 0, 0, 1)
    collapsed = restrict_collapsed(emb, lam)
    top_w, top_q = max(collapsed, key=lambda kq: emb.hsys.qnorm(kq[0]))
    # a target above every key, and a charge with no key
    above = tuple(x + 1 for x in top_w)
    no_key = max(q for _, q in collapsed) + 1
    for w, q in [(above, top_q), (top_w, no_key)]:
        assert multiplicity_of(emb, lam, w, charge=q, collapsed=collapsed) == 0
    assert racah_walk == []
    # a key of the largest Q is a highest weight, and its one term reads it
    got = multiplicity_of(emb, lam, top_w, charge=top_q, collapsed=collapsed)
    assert got == collapsed[(top_w, top_q)] > 0
    assert racah_walk == [(emb.hsys.rho, 1)]
