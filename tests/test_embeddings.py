import re

import pytest

from liebranch.branching import load_rules
from liebranch.characters import decompose, restrict_collapsed
from liebranch.chevalley import chevalley_basis
from liebranch.embeddings import (
    Embedding,
    data_dir_default,
    load_catalog,
    parse_embeddings,
    subsystem_simple_images,
)
from liebranch.linalg import SpanQ
from liebranch.rootsys import LieError, SimpleType, root_system
from liebranch.sphericity import SphericitySetup, lie_h
from oracles import (
    centralizer,
    cross_check_subsystems,
    fundamental,
    h_positive_roots_in_g,
    restrict_weight,
    simple_generators,
    to_dense,
    validate,
)


@pytest.fixture(scope="module")
def cat():
    return load_catalog()


def test_catalog_ignores_data_dir_variable(cat, monkeypatch, tmp_path):
    # load_catalog(data_dir) is the one switch: the environment is not read
    monkeypatch.setenv("LIEBRANCH_DATA", str(tmp_path / "missing"))
    assert load_catalog() is load_catalog(None) is cat
    # the same directory, named another way, is parsed once
    assert load_catalog(data_dir_default() + "/.") is cat


def test_rules_parsed_once_per_directory():
    book = load_rules()
    assert load_rules(None) is book
    # the same directory, named another way, is parsed once
    assert load_rules(data_dir_default() + "/.") is book


def test_catalog_shape(cat):
    assert len(cat.records) == 40
    names = {g: [r.name for r in cat.entries(g)] for g in ["G2", "F4", "E6", "E7", "E8"]}
    assert names["G2"] == ["A2", "A1xA1", "A1"]
    assert names["F4"] == ["B4", "A1xC3", "A2xA2", "A3xA1", "A1xG2", "A1"]
    assert names["E6"] == [
        "A5xA1", "A2xA2xA2", "D5xT1", "F4", "C4", "A2", "G2", "A2xG2",
    ]
    assert names["E7"] == [
        "A7", "D6xA1", "A5xA2", "A3xA3xA1", "E6xT1", "A1xF4",
        "A1", "A2", "A1xA1", "A1xG2", "G2xC3",
    ]
    assert names["E8"] == [
        "D8", "A8", "A7xA1", "A5xA2xA1", "A4xA4", "A3xD5", "E6xA2", "E7xA1",
        "A1", "B2", "A1xA2", "G2xF4",
    ]


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
    # the two rank-8 entries below are asserted at the values the root
    # bookkeeping forces (56+8 and 4+3); the catalog follows the formula
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


def test_borel_dimensions(cat):
    got = {(str(r.ambient), r.name): r.borel_dim() for r in cat.records}
    assert got == BOREL_DIMS


def test_one_product_system_per_spec(cat):
    # 40 records with 33 distinct specs share 33 root systems
    systems = {}
    for r in cat.records:
        systems.setdefault(r.spec, set()).add(id(r.hsys))
        assert r.hsys is root_system(r.spec)
    assert len(systems) == 33
    assert all(len(ids) == 1 for ids in systems.values())
    a1 = [r for r in cat.records if r.name == "A1"]
    assert len(a1) == 4 and all(r.hsys is a1[0].hsys for r in a1)


def test_subsystem_images_match_removal_derivation(cat):
    assert cross_check_subsystems(cat) == []


@pytest.mark.parametrize(
    "g,h",
    [
        ("G2", "A2"),
        ("F4", "B4"),
        ("F4", "A1xC3"),
        ("F4", "A2xA2"),
        ("F4", "A3xA1"),
        ("E6", "A5xA1"),
        ("E6", "A2xA2xA2"),
        ("E6", "D5xT1"),
        ("E6", "F4"),
        ("E6", "C4"),
        ("E7", "A7"),
        ("E7", "D6xA1"),
        ("E7", "A5xA2"),
        ("E7", "A3xA3xA1"),
        ("E7", "E6xT1"),
        ("E7", "A1xF4"),
        ("E8", "D8"),
        ("E8", "A8"),
        ("E8", "A7xA1"),
        ("E8", "A5xA2xA1"),
        ("E8", "A4xA4"),
        ("E8", "A3xD5"),
        ("E8", "E6xA2"),
        ("E8", "E7xA1"),
    ],
)
def test_generator_relations(cat, g, h):
    validate(cat.get(g, h))


def fw(rank, i):
    return tuple(1 if j == i - 1 else 0 for j in range(rank))


RESTRICTION_GOLDENS = [
    # (G, H, G-weight node, expected H weight, expected charge)
    ("G2", "A2", 1, (1, 0), None),
    ("G2", "A2", 2, (1, 1), None),
    ("F4", "B4", 4, (1, 0, 0, 0), None),
    ("F4", "B4", 1, (0, 1, 0, 0), None),
    ("E6", "F4", 6, (0, 0, 0, 1), None),
    ("E6", "F4", 1, (0, 0, 0, 1), None),
    ("E6", "F4", 2, (1, 0, 0, 0), None),
    ("E6", "C4", 6, (0, 1, 0, 0), None),
    ("E6", "C4", 1, (0, 1, 0, 0), None),
    ("E6", "A5xA1", 1, (1, 0, 0, 0, 0, 1), None),
    ("E6", "D5xT1", 6, (1, 0, 0, 0, 0), 2),
    ("E6", "D5xT1", 1, (0, 0, 0, 0, 0), 4),
    ("E7", "A7", 7, (0, 0, 0, 0, 0, 1, 0), None),
    ("E7", "D6xA1", 7, (1, 0, 0, 0, 0, 0, 1), None),
    ("E7", "E6xT1", 7, (0, 0, 0, 0, 0, 0), 3),
    ("E7", "E6xT1", 1, (1, 0, 0, 0, 0, 0), 2),
    ("E7", "A1xF4", 7, (3, 0, 0, 0, 0), None),
]


@pytest.mark.parametrize("g,h,node,lam,charge", RESTRICTION_GOLDENS)
def test_restriction_of_fundamental_weights(cat, g, h, node, lam, charge):
    emb = cat.get(g, h)
    rank_g = emb.ambient.rank
    got_lam, got_charge = restrict_weight(emb, fw(rank_g, node))
    assert got_lam == lam
    assert got_charge == charge


def test_restrict_weight_additive(cat):
    emb = cat.get("E6", "D5xT1")
    a, b = (1, 0, 2, 0, 0, 1), (0, 3, 0, 0, 1, 0)
    s = tuple(x + y for x, y in zip(a, b))
    la, ca = restrict_weight(emb, a)
    lb, cb = restrict_weight(emb, b)
    ls, cs = restrict_weight(emb, s)
    assert ls == tuple(x + y for x, y in zip(la, lb))
    assert cs == ca + cb


def span_rank(amb, vectors):
    cb = chevalley_basis(amb)
    span = SpanQ(cb.dim)
    for v in vectors:
        span.add(to_dense(cb, v))
    return span.rank


def test_folded_subalgebra_dimensions(cat):
    e6 = SimpleType("E", 6)
    e7 = SimpleType("E", 7)
    # lie_h is (torus, raising, lowering): sum(..., []) joins the lists
    assert span_rank(e6, sum(lie_h(cat.get("E6", "F4")), [])) == 52
    assert span_rank(e6, sum(lie_h(cat.get("E6", "C4")), [])) == 36
    assert span_rank(e7, sum(lie_h(cat.get("E7", "A1xF4")), [])) == 55


def test_derived_sl2_row(cat):
    emb = cat.get("E7", "A1xF4")
    rows = emb.weight_image().rows[: emb.rank_ss]
    assert rows[0] == (2, 3, 4, 6, 5, 4, 3)
    # remaining rows are the rank-4 factor's rows inside the Levi
    f4 = cat.get("E6", "F4")
    f4_rows = f4.weight_image().rows[: f4.rank_ss]
    assert [r[:6] for r in rows[1:]] == [tuple(r) for r in f4_rows]
    assert all(r[6] == 0 for r in rows[1:])


def test_derived_sl2_triple_pinned(cat):
    # the centralizing sl2 of E7 > A1xF4 as the data line states it, at the
    # values a nullspace solve first gave: any change to that line, or to
    # how a chev line becomes x, y and h, shows up here
    emb = cat.get("E7", "A1xF4")
    xg, yg = simple_generators(emb)
    row = emb.weight_image().rows[: emb.rank_ss][0]
    h0 = chevalley_basis(emb.ambient).h_vector(row)
    assert xg[0] == {45: -1, 46: -1, 47: 1}
    assert yg[0] == {108: -1, 109: -1, 110: 1}
    assert h0 == {126: 2, 127: 3, 128: 4, 129: 6, 130: 5, 131: 4, 132: 3}


@pytest.mark.parametrize("sign", [1, -1], ids=["raising", "lowering"])
def test_a1_line_spans_the_f4_centralizer(cat, sign):
    # oracle for the A1 line of E7 > A1xF4: inside the root spaces with
    # a7 = sign, the elements commuting with every F4 generator form one
    # line, and the A1 generator spans it
    emb = cat.get("E7", "A1xF4")
    cb = chevalley_basis(emb.ambient)
    xg, yg = simple_generators(emb)
    block = [
        cb.root_index[tuple(sign * c for c in a)]
        for a in cb.rs.positive_roots
        if a[6] == 1
    ]
    basis = centralizer(cb, xg[1:] + yg[1:], block)
    assert len(basis) == 1
    gen = to_dense(cb, xg[0] if sign == 1 else yg[0])
    line = SpanQ(cb.dim)
    line.add(basis[0])
    assert any(gen)
    assert not any(line.reduce(gen))


def additive_closure(rs, node):
    """Positive roots of the closure of {+-theta} and {+-alpha_j : j != node}
    under sums that are roots."""
    r = rs.rank
    gens = [rs.highest_root] + [
        tuple(int(k == j) for k in range(r)) for j in range(r) if j != node - 1
    ]
    sub = set(gens) | {tuple(-x for x in a) for a in gens}
    grew = True
    while grew:
        grew = False
        for a in list(sub):
            for b in list(sub):
                s = tuple(x + y for x, y in zip(a, b))
                if s not in sub and rs.is_root(s):
                    sub.add(s)
                    grew = True
    return sorted(a for a in sub if a in rs.index)


EXCEPTIONAL_NODES = [
    (g, node) for g in ("G2", "F4", "E6", "E7", "E8") for node in range(1, int(g[1]) + 1)
]


@pytest.mark.parametrize("g,node", EXCEPTIONAL_NODES)
def test_subsystem_roots_are_the_additive_closure(g, node):
    t = SimpleType(g[0], int(g[1]))
    _, pos = subsystem_simple_images(t, node)
    assert pos == additive_closure(root_system(t), node)


def test_h_positive_root_counts(cat):
    cases = {
        ("G2", "A2"): 3,
        ("F4", "B4"): 16,
        ("E6", "A5xA1"): 16,
        ("E6", "D5xT1"): 20,
        ("E7", "A7"): 28,
        ("E7", "D6xA1"): 31,
        ("E7", "E6xT1"): 36,
        ("E8", "D8"): 56,
        ("E8", "A8"): 36,
    }
    for (g, h), n in cases.items():
        roots = h_positive_roots_in_g(cat.get(g, h))
        assert len(roots) == n
        assert len(set(roots)) == n


@pytest.mark.parametrize("g,h,omit", [("E6", "D5xT1", 1), ("E7", "E6xT1", 7)])
def test_levi_roots_are_those_off_the_omitted_node(cat, g, h, omit):
    # the omitted node is implied by the root lines, not stated
    emb = cat.get(g, h)
    rs = root_system(emb.ambient)
    want = sorted(a for a in rs.positive_roots if a[omit - 1] == 0)
    assert sorted(h_positive_roots_in_g(emb)) == want


def test_g2_long_root_subsystem(cat):
    roots = set(h_positive_roots_in_g(cat.get("G2", "A2")))
    assert roots == {(0, 1), (3, 1), (3, 2)}


def test_e8_removal_types():
    expect = {
        1: ["D8"],
        2: ["A8"],
        3: ["A7", "A1"],
        4: ["A5", "A2", "A1"],
        5: ["A4", "A4"],
        6: ["D5", "A3"],
        7: ["E6", "A2"],
        8: ["E7", "A1"],
    }
    e8 = SimpleType("E", 8)
    for node, types in expect.items():
        factors, _ = subsystem_simple_images(e8, node)
        assert sorted(str(t) for t, _ in factors) == sorted(types)


def test_typeonly_has_no_generators(cat):
    emb = cat.get("E6", "A2xG2")
    assert emb.gen_terms is None
    with pytest.raises(LieError, match="no generators known"):
        emb.weight_image()
    assert emb.borel_dim() == 13


def test_records_are_built_once(cat):
    # loading sets every field of a record, the weight map included: no
    # reader fills one in later
    for emb in cat.records:
        before = {k: id(v) for k, v in vars(emb).items()}
        emb.borel_dim()
        if emb.gen_terms is None:
            with pytest.raises(LieError):
                emb.weight_image()
        else:
            emb.weight_image()
            SphericitySetup(emb, 1)
            if str(emb.ambient) in ("G2", "F4", "E6"):
                restrict_collapsed(emb, fundamental(root_system(emb.ambient), 1))
        assert {k: id(v) for k, v in vars(emb).items()} == before, emb


def test_parser_rejects_a_duplicate_record():
    # the second record of a (G, H) pair fails at its embed line, also
    # when it spells the type another way
    text = (
        "format 1\nembed A2 in G2\nkind subsystem\nnode 1\n"
        "embed a2 in G2\nkind subsystem\nnode 1\n"
    )
    why = "embeddings data line 5: duplicate catalog entry ('G2', 'A2')"
    with pytest.raises(LieError, match=f"^{re.escape(why)}$"):
        parse_embeddings(text)


def test_record_fault_comes_before_a_later_line():
    # a record is built when the next embed line is reached, so its fault
    # is reported before the fault of any line after it
    text = "format 1\nembed F4 in E6\nkind folded\nembed A2 in G2\ngarbage\n"
    why = "embeddings data line 2: F4 in E6: kind folded needs chev lines"
    with pytest.raises(LieError, match=f"^{re.escape(why)}$"):
        parse_embeddings(text)


def test_parser_rejects_bad_input():
    with pytest.raises(LieError):
        parse_embeddings("embed A2 in G2\nkind subsystem\n")  # no format line
    with pytest.raises(LieError):
        parse_embeddings("format 2\n")
    with pytest.raises(LieError):
        parse_embeddings("format 1\nembed A2 in X9\n")
    with pytest.raises(LieError):
        parse_embeddings("format 1\nembed A2 in G2\nkind nonsense\n")
    with pytest.raises(LieError):
        parse_embeddings("format 1\nembed A2 in G2\nroot 1 = (1,0,0)\n")
    with pytest.raises(LieError):
        parse_embeddings("format 1\nkind subsystem\n")
    with pytest.raises(LieError):
        # root lines must cover 1..rank
        parse_embeddings("format 1\nembed A2 in G2\nkind subsystem\nroot 1 = a1\n")
    # the header comes first, and once
    with pytest.raises(LieError, match="^embeddings data line 1: expected the header"):
        parse_embeddings("embed A2 in G2\nkind subsystem\nnode 1\nformat 1\n")
    with pytest.raises(LieError, match="^embeddings data line 5: repeated format line$"):
        parse_embeddings("format 1\nembed A2 in G2\nkind subsystem\nnode 1\nformat 1\n")


@pytest.mark.parametrize(
    "text,why",
    [
        # a levi name without a T1 factor fails on the torus first
        ("embed A2 in G2\nkind levi\nroot 1 = (3,1)\nroot 2 = (0,1)\n"
         "coweight (0,0)\n", "needs exactly one T1 factor, got A2$"),
        ("embed A1 in G2\nkind levi\nroot 1 = (0,1)\ncoweight (0,0)\n",
         "needs exactly one T1 factor, got A1$"),
        ("embed A1 in F4\nkind levi\nroot 1 = a1\ncoweight (0,0,0,1)\n",
         "needs exactly one T1 factor, got A1$"),
        ("embed A2xT1 in G2\nkind levi\nroot 1 = (3,1)\nroot 2 = (0,1)\n"
         "coweight (0,0)\n", "semisimple rank 1, not 2"),
        ("embed A1xT1 in G2\nkind levi\nroot 1 = (0,1)\ncoweight (0,0)\n",
         "coweight must be nonzero"),
        ("embed A1xT1 in F4\nkind levi\nroot 1 = a1\ncoweight (0,0,0,1)\n",
         "semisimple rank 3, not 1"),
        ("embed A2 in G2\nkind subsystem\nroot 1 = (1,-)\nroot 2 = (0,1)\n",
         "cannot parse root tuple"),
        ("embed A2 in G2\nkind subsystem\nroot 1 = (1,,2)\nroot 2 = (0,1)\n",
         "cannot parse root tuple"),
    ],
)
def test_parser_rejects_bad_levi_records_and_root_tuples(text, why):
    # a record error names the record's embed line, a parse error its own
    line = 2 if "levi" in text else 4
    with pytest.raises(LieError, match=rf"^embeddings data line {line}: .*{why}"):
        parse_embeddings("format 1\n" + text)


# a Levi A1xT1 of G2 on the long simple root; the coweight vanishes on it
LEVI_A1 = "kind levi\nroot 1 = (0,1)\ncoweight (2,3)\n"


@pytest.mark.parametrize(
    "text,why",
    [
        ("embed A1 in G2\n" + LEVI_A1,
         "line 2: A1 in G2: a levi name needs exactly one T1 factor, got A1"),
        ("embed A2xT1 in G2\nkind subsystem\nnode 1\n",
         "line 2: A2xT1 in G2: a T factor goes only with kind levi, got A2xT1"),
        ("embed A1xT1 in G2\nkind levi\nomit 2\nroot 1 = (0,1)\ncoweight (2,3)\n",
         "line 4: unknown directive 'omit'"),
    ],
)
def test_parser_rejects_torus_against_kind_and_omit(text, why):
    with pytest.raises(LieError, match=f"^embeddings data {re.escape(why)}$"):
        parse_embeddings("format 1\n" + text)


@pytest.mark.parametrize(
    "text,why",
    [
        ("embed A2 in G2\nkind levi\nkind subsystem\nnode 1\n", "line 4: repeated kind"),
        ("embed A1xT1 in G2\n" + LEVI_A1 + "coweight (2,3)\n", "line 6: repeated coweight"),
        ("embed A2 in G2\nkind subsystem\nroot 1 = (3,1)\nroot 01 = (3,1)\n"
         "root 2 = (0,1)\n", "line 5: repeated root 1"),
        ("embed A1 in G2\nkind folded\nchev 1 = +(0,1)\nchev 1 = +(0,1)\n",
         "line 5: repeated chev 1"),
    ],
)
def test_parser_rejects_repeated_directives(text, why):
    # the second line is an error, not an override, even when it repeats
    # the first
    with pytest.raises(LieError, match=f"^embeddings data {why} line$"):
        parse_embeddings("format 1\n" + text)


def test_levi_record_without_omit_line():
    (emb,) = parse_embeddings("format 1\nembed A1xT1 in G2\n" + LEVI_A1)
    assert h_positive_roots_in_g(emb) == [(0, 1)]
    # V(w1) of G2 is 7-dimensional: an l1 doublet at charges +-1 and three
    # trivial classes
    assert decompose(emb, (1, 0)) == {
        ((1,), 1): 1,
        ((1,), -1): 1,
        ((0,), 2): 1,
        ((0,), 0): 1,
        ((0,), -2): 1,
    }


def test_parser_rejects_terms_that_differ_by_a_root():
    # a4 and (0,1,2,1) are orthogonal short roots of F4, so the pairing is
    # that of A1; but their difference is a root, so [x, y] would carry
    # root vectors besides h
    text = "format 1\nembed A1 in F4\nkind folded\nchev 1 = +a4 +(0,1,2,1)\n"
    with pytest.raises(LieError, match=r"\) - \(.* is a root"):
        parse_embeddings(text)


C4_IN_E6 = (
    "format 1\nembed C4 in E6\nkind folded\nchev 1 = {}\n"
    "chev 2 = +a1 +a6\nchev 3 = +a3 -a5\nchev 4 = +a4\n"
)


@pytest.mark.parametrize(
    "spaced",
    [
        "+(0, 1, 1, 1, 0, 0) +(0, 1, 0, 1, 1, 0)",
        "+( 0,1,1,1,0,0 ) +(0,1,0,1,1,0)",
        "(0, 1, 1, 1, 0, 0) +(0, 1, 0, 1, 1, 0)",
    ],
)
def test_chev_root_tuples_may_hold_spaces(spaced):
    # like root and coweight lines; spaces outside a tuple separate terms
    [tight] = parse_embeddings(C4_IN_E6.format("+(0,1,1,1,0,0) +(0,1,0,1,1,0)"))
    [loose] = parse_embeddings(C4_IN_E6.format(spaced))
    assert loose.gen_terms == tight.gen_terms
    assert loose.gen_terms[0] == [(1, (0, 1, 1, 1, 0, 0)), (1, (0, 1, 0, 1, 1, 0))]
    [a1] = parse_embeddings("format 1\nembed A1 in G2\nkind folded\nchev 1 = +(0, 1)\n")
    assert a1.gen_terms == [[(1, (0, 1))]]


@pytest.mark.parametrize(
    "bad,token",
    [
        ("+(0, 1, 1, 1, 0, 0 +(0,1,0,1,1,0)", "(0,"),
        ("+(0,1,1,1,0,0)+(0,1,0,1,1,0)", "(0,1,1,1,0,0)+(0,1,0,1,1,0)"),
        ("+(0,1,1,1,0,0) + (0,1,0,1,1,0)", ""),
    ],
)
def test_chev_rejects_malformed_terms(bad, token):
    with pytest.raises(LieError, match=re.escape(f"cannot parse root token {token!r}")):
        parse_embeddings(C4_IN_E6.format(bad))


def test_tabs_separate_like_spaces():
    spaces = parse_embeddings("format 1\nembed A2 in G2\nkind subsystem\nnode 1\n")
    tabs = parse_embeddings("format\t1\nembed A2 in G2\nkind\tsubsystem\nnode 1\n")
    assert [(r.kind, r.simple_images) for r in tabs] == [
        (r.kind, r.simple_images) for r in spaces
    ]


def test_parse_roundtrip_minimal():
    recs = parse_embeddings(
        "format 1\n"
        "embed A2 in G2\n"
        "kind subsystem\n"
        "node 1\n"
        "root 1 = (3,1)\n"
        "root 2 = (0,1)\n"
    )
    assert len(recs) == 1
    assert recs[0].simple_images == [(3, 1), (0, 1)]
    assert recs[0].node == 1
