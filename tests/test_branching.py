"""Rule-file parsing, expansion, verification, and generator discovery."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liebranch import branching
from liebranch.branching import (
    Generator,
    Rule,
    discover_generators,
    load_rules,
    parse_rules,
    verify_rule,
)
from liebranch.characters import decompose
from liebranch.embeddings import load_catalog
from liebranch.rootsys import LieError, ProductSystem, SimpleType, TypeSpec, root_system
from oracles import dual_weight


@pytest.fixture(scope="module")
def book():
    return load_rules()


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


# Every spherical (subgroup, node) pair carries exactly one primary rule.
TRIPLES = sorted(
    [
        ("G2", "A2", 1),
        ("G2", "A2", 2),
        ("F4", "B4", 1),
        ("F4", "B4", 2),
        ("F4", "B4", 3),
        ("F4", "B4", 4),
        ("E6", "A5xA1", 1),
        ("E6", "A5xA1", 6),
        ("E6", "F4", 1),
        ("E6", "F4", 2),
        ("E6", "F4", 3),
        ("E6", "F4", 5),
        ("E6", "F4", 6),
        ("E6", "C4", 1),
        ("E6", "C4", 6),
        ("E6", "D5xT1", 1),
        ("E6", "D5xT1", 2),
        ("E6", "D5xT1", 3),
        ("E6", "D5xT1", 5),
        ("E6", "D5xT1", 6),
        ("E7", "A7", 7),
        ("E7", "E6xT1", 1),
        ("E7", "E6xT1", 2),
        ("E7", "E6xT1", 7),
        ("E7", "D6xA1", 7),
    ]
)

# Depth of the verification sweep, per ambient group.
KMAX = {"G2": 5, "F4": 3, "E6": 2, "E7": 2}

# The 12 E6 triples at the nodes that the diagram duality moves.
E6_MOVED = [t for t in TRIPLES if t[0] == "E6" and t[2] in (1, 3, 5, 6)]

# The variants of the rule book: four stated, and the H-duals of the two
# stated at E6 nodes 1 and 3.
VARIANTS = [
    ("F4", "B4", 4, "printed"),
    ("E6", "D5xT1", 1, "table"),
    ("E6", "D5xT1", 3, "printed"),
    ("E6", "D5xT1", 5, "printed"),
    ("E6", "D5xT1", 6, "table"),
    ("E7", "E6xT1", 2, "printed"),
]

# The lines that rules.txt once stated at E6 nodes 5 and 6, before
# loading derived them as the H-duals of the rules at nodes 3 and 1.
DERIVED_LINES = [
    "rule E6 A5xA1 6 : a1 + 2*a2 + a3 = k -> a1*l5 + a2*l4 + a3*l2 + a1*l6",
    "rule E6 F4 5 : a1 + a2 + a3 = k -> a1*l1 + a2*l3 + a3*l4",
    "rule E6 F4 6 : a1 <= k -> a1*l4",
    "rule E6 C4 6 : a1 + 2*a2 + 2*a3 = k -> a1*l2 + a2*l4",
    "rule E6 D5xT1 5 : a1 + a2 + a3 + a4 + a5 + a6 = k -> (a1+a6)*l1 + a2*l2 + a3*l3"
    " + a4*l4 + (a5+a6)*l5 @ -2*a1 + 4*a2 - 2*a3 + a4 - 5*a5 + a6",
    "rule E6 D5xT1 6 : a1 + a2 + a3 = k -> a1*l1 + a2*l5 @ 2*a1 - a2 - 4*a3",
]
FORMER_VARIANT = (
    "rulevariant table E6 D5xT1 6 : a1 + a2 + a3 = k -> a1*l1 + a2*l4 @ 2*a1 - a2 - 4*a3"
)

# Dimension of the ring of highest-weight vectors in C[G/P_i], equal to
# the number of monoid generators (bounded rules count their slack).
S_VALUES = {
    ("G2", "A2", 1): 3,
    ("G2", "A2", 2): 3,
    ("F4", "B4", 1): 2,
    ("F4", "B4", 2): 5,
    ("F4", "B4", 3): 5,
    ("F4", "B4", 4): 3,
    ("E6", "A5xA1", 1): 3,
    ("E6", "F4", 1): 2,
    ("E6", "F4", 2): 2,
    ("E6", "F4", 3): 3,
    ("E6", "F4", 5): 3,
    ("E6", "F4", 6): 2,
    ("E6", "C4", 1): 3,
    ("E7", "A7", 7): 4,
    ("E7", "D6xA1", 7): 3,
}


class TestLoading:
    def test_counts(self, book):
        primary = [r for r in book.rules if r.label is None]
        variants = [r for r in book.rules if r.label is not None]
        assert len(primary) == 25
        assert len(variants) == 6

    def test_triples(self, book):
        assert sorted(book.by_key) == TRIPLES

    def test_variant_keys(self, book):
        seen = []
        for g, h, node, label in VARIANTS:
            entry = book.get(g, h, node)
            assert label in [v.label for v in entry.variants]
            seen.append((g, h, node))
        for key in sorted(book.by_key):
            if key not in seen:
                assert book.get(*key).variants == []

    @pytest.mark.parametrize("line", DERIVED_LINES)
    def test_derived_rule_equals_former_line(self, book, line):
        # each rule at E6 node 5 or 6 is derived, and equals the line that
        # stated it, as a generator multiset
        g, h, node = line.split()[1:4]
        stated = parse_rules("format 1\n" + line).get(g, h, int(node)).primary
        derived = book.get(g, h, int(node)).primary
        assert Counter(derived.generators) == Counter(stated.generators)

    def test_derived_variant_equals_former_line(self, book):
        text = "\n".join(["format 1", DERIVED_LINES[-1], FORMER_VARIANT])
        (stated,) = parse_rules(text).get("E6", "D5xT1", 6).variants
        (derived,) = book.get("E6", "D5xT1", 6).variants
        assert derived.label == stated.label == "table"
        assert Counter(derived.generators) == Counter(stated.generators)

    def test_missing_rule(self, book):
        with pytest.raises(LieError):
            book.get("E6", "F4", 4)

    def test_bounded_rules_have_slack(self, book):
        for g, h, node in TRIPLES:
            rule = book.get(g, h, node).primary
            if rule.bounded:
                tail = rule.generators[-1]
                assert tail.degree == 1
                assert not any(tail.weight)
                assert tail.charge == 0

    def test_rule_nodes_match_key(self, book):
        for g, h, node in TRIPLES:
            rule = book.get(g, h, node).primary
            assert rule.ambient == SimpleType(g[0], int(g[1]))
            assert rule.h_name == h
            assert rule.node == node


SAMPLE = """
format 1
rule G2 A2 1 : a1 + a2 <= k -> a1*l1 + a2*l2
rule E6 D5xT1 1 : a1 + 2*a2 + a3 = k -> (a1+a3)*l1 + a2*l4 @ -2*a1 + a2 + 4*a3
"""


class TestParsing:
    def test_sample_bounded(self):
        rb = parse_rules(SAMPLE)
        rule = rb.get("G2", "A2", 1).primary
        assert rule.bounded
        assert rule.generators == (
            Generator(1, (1, 0), 0),
            Generator(1, (0, 1), 0),
            Generator(1, (0, 0), 0),
        )

    def test_sample_charges(self):
        rb = parse_rules(SAMPLE)
        rule = rb.get("E6", "D5xT1", 1).primary
        assert not rule.bounded
        assert rule.generators == (
            Generator(1, (1, 0, 0, 0, 0), -2),
            Generator(2, (0, 0, 0, 1, 0), 1),
            Generator(1, (1, 0, 0, 0, 0), 4),
        )

    @pytest.mark.parametrize(
        "text",
        [
            "rule G2 A2 1 : a1 = k -> a1*l1",  # missing header
            "format 2\nrule G2 A2 1 : a1 = k -> a1*l1",
            "format 1\nfoo G2 A2 1 : a1 = k -> a1*l1",
            "format 1\nrule G2 A2 1 : b1 = k -> a1*l1",
            "format 1\nrule G2 A2 1 : a1 + a1 = k -> a1*l1",
            "format 1\nrule G2 A2 1 : a1 + a3 = k -> a1*l1",
            "format 1\nrule G2 A2 1 : a1 < k -> a1*l1",
            "format 1\nrule G2 A2 1 : a1 = k -> a1*l9",
            "format 1\nrule G2 A2 1 : a1 = k -> a5*l1",
            "format 1\nrule G2 A2 1 : a1 = k -> a1*l1 @ a1",  # no torus
            "format 1\nrule E6 D5xT1 1 : a1 + a2 = k -> a1*l1 + a2*l4 @",
            "format 1\nrule E6 D5xT1 1 : a1 + a2 = k -> a1*l1 + a2*l4 @ a1a2",
            "format 1\nrule G2 A2 1 : a1 = k  a1*l1",  # no arrow
            "format 1\nrule G2 A2 1 a1 = k -> a1*l1",  # no colon
            "format 1\nrule G2 A2 9 : a1 = k -> a1*l1",
            "format 1\nrule A1xA1 A1 1 : a1 = k -> a1*l1",
            "format 1\nrule G2 A2 1 : a1 = k -> a1*l1 + l2",
            "format 1\nrulevariant x G2 A2 1 : a1 = k -> a1*l1",
            (
                "format 1\n"
                "rule G2 A2 1 : a1 = k -> a1*l1\n"
                "rule G2 A2 1 : a1 = k -> a1*l2"
            ),
            # a rule stated at both i and i*: the one at i* is derived
            (
                "format 1\n"
                "rule E6 F4 1 : a1 <= k -> a1*l4\n"
                "rule E6 F4 6 : a1 <= k -> a1*l4"
            ),
            # the printed E7 > E6xT1 node-2 generators are not self-dual,
            # so as a rule at a node with i = i* they do not load
            (
                "format 1\n"
                "rule E7 E6xT1 2 : a1 + a2 + a3 + 2*a4 + a5 + a6 + a7 = k -> a1*l1"
                " + (a2+a7)*l2 + a3*l3 + a4*l4 + a5*l5 + a6*l6"
                " @ -a1 + 3*a2 + a3 - a5 - 2*a6"
            ),
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(LieError):
            parse_rules(text)

    def test_comments_and_blanks_ignored(self):
        rb = parse_rules(
            "# c\n\nformat 1\n# c\nrule G2 A2 1 : a1 + a2 <= k -> a1*l1 + a2*l2\n"
        )
        assert len(rb.rules) == 1

    def test_trailing_comment_ignored(self):
        rb = parse_rules(
            "format 1\nrule G2 A2 1 : a1 + a2 <= k -> a1*l1 + a2*l2  # note\n"
        )
        want = parse_rules(SAMPLE).get("G2", "A2", 1).primary
        assert rb.get("G2", "A2", 1).primary == want


class TestExpansion:
    def test_degree_zero(self, book):
        rule = book.get("F4", "B4", 1).primary
        assert rule.expand(0) == {((0, 0, 0, 0), 0): 1}

    def test_negative_degree(self, book):
        rule = book.get("F4", "B4", 1).primary
        with pytest.raises(LieError):
            rule.expand(-1)

    def test_g2_node2_k1(self, book):
        rule = book.get("G2", "A2", 2).primary
        assert rule.expand(1) == {
            ((1, 0), 0): 1,
            ((0, 1), 0): 1,
            ((1, 1), 0): 1,
        }

    def test_f4_node1_k2(self, book):
        rule = book.get("F4", "B4", 1).primary
        assert rule.expand(2) == {
            ((0, 2, 0, 0), 0): 1,
            ((0, 1, 0, 1), 0): 1,
            ((0, 0, 0, 2), 0): 1,
        }

    def test_e7_node7_charges(self, book):
        rule = book.get("E7", "E6xT1", 7).primary
        zero = (0,) * 6
        assert rule.expand(1) == {
            ((1, 0, 0, 0, 0, 0), -1): 1,
            ((0, 0, 0, 0, 0, 1), 1): 1,
            (zero, 3): 1,
            (zero, -3): 1,
        }

    def test_bounded_counts(self, book):
        rule = book.get("G2", "A2", 1).primary
        for k in range(6):
            total = sum(rule.expand(k).values())
            assert total == (k + 1) * (k + 2) // 2

    @pytest.mark.parametrize("g,h,node", [("E6", "D5xT1", 2), ("E7", "E6xT1", 2)])
    def test_selfdual_charge_symmetry(self, book, g, h, node):
        # These nodes are fixed by the diagram duality, so the class
        # multiset must be stable under (w, q) -> (w*, -q).
        rule = book.get(g, h, node).primary
        ps = ProductSystem(TypeSpec.parse(h))
        for k in (1, 2, 3):
            classes = rule.expand(k)
            flipped = Counter(
                {(dual_weight(ps, w), -q): m for (w, q), m in classes.items()}
            )
            assert flipped == classes


class TestVerification:
    @pytest.mark.parametrize("g,h,node", TRIPLES)
    def test_rule_matches_decomposition(self, book, catalog, g, h, node):
        emb = catalog.get(g, h)
        rule = book.get(g, h, node).primary
        for k in range(1, KMAX[g] + 1):
            assert verify_rule(emb, rule, k) is True, k

    @pytest.mark.parametrize("g,h,node", E6_MOVED)
    def test_dual_reading_needs_no_second_restriction(
        self, book, catalog, monkeypatch, g, h, node
    ):
        # res V(k*omega_{i*}) is the H-dual of res V(k*omega_i), the fact
        # that derives the rule at i* from the rule at i; verify_rule
        # restricts once per degree
        emb = catalog.get(g, h)
        rule = book.get(g, h, node).primary
        dnode = root_system(emb.ambient).dual_node(node)
        calls = []

        def counting(emb, lam):
            calls.append(lam)
            return decompose(emb, lam)

        monkeypatch.setattr(branching, "decompose", counting)
        for k in range(1, KMAX[g] + 1):
            lam = tuple(k if j == node - 1 else 0 for j in range(6))
            dlam = tuple(k if j == dnode - 1 else 0 for j in range(6))
            classes, dual = decompose(emb, lam), decompose(emb, dlam)
            assert dual == {
                (dual_weight(emb.hsys, nu), -q): m for (nu, q), m in classes.items()
            }
            calls.clear()
            assert verify_rule(emb, rule, k)
            assert calls == [lam]

    @pytest.mark.parametrize("g,h,node,label", VARIANTS)
    def test_variants_fail(self, book, catalog, g, h, node, label):
        emb = catalog.get(g, h)
        var = next(
            v for v in book.get(g, h, node).variants if v.label == label
        )
        assert verify_rule(emb, var, 1) is False

    def test_degree_zero_matches(self, book, catalog):
        emb = catalog.get("G2", "A2")
        rule = book.get("G2", "A2", 1).primary
        assert verify_rule(emb, rule, 0) is True


class TestDiscovery:
    @pytest.mark.parametrize("g,h,node", sorted(S_VALUES))
    def test_recovers_rule_generators(self, book, catalog, g, h, node):
        emb = catalog.get(g, h)
        gens = discover_generators(emb, node, k_probe=3)
        rule = book.get(g, h, node).primary
        assert len(gens) == S_VALUES[(g, h, node)]
        assert Counter(gens) == Counter(rule.generators)

    @pytest.mark.parametrize("node", [1, 2])
    def test_discovered_monoid_predicts_next_degree(self, catalog, node):
        emb = catalog.get("G2", "A2")
        gens = discover_generators(emb, node, k_probe=3)
        probe = Rule(SimpleType("G", 2), "A2", node, tuple(gens), False)
        assert verify_rule(emb, probe, 4)

    def test_torus_charges_discovered(self, catalog, book):
        emb = catalog.get("E7", "E6xT1")
        gens = discover_generators(emb, 7, k_probe=2)
        rule = book.get("E7", "E6xT1", 7).primary
        assert Counter(gens) == Counter(rule.generators)


@st.composite
def degree_vectors(draw):
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    k = draw(st.integers(0, 7))
    return degrees, k


def count_solutions(degrees, k):
    dp = [0] * (k + 1)
    dp[0] = 1
    for d in degrees:
        for v in range(d, k + 1):
            dp[v] += dp[v - d]
    return dp[k]


class TestExpansionProperties:
    @given(degree_vectors())
    @settings(max_examples=60, deadline=None)
    def test_total_count_is_solution_count(self, data):
        degrees, k = data
        gens = tuple(Generator(d, (0, 0), 0) for d in degrees)
        rule = Rule(SimpleType("G", 2), "A2", 1, gens, False)
        assert sum(rule.expand(k).values()) == count_solutions(degrees, k)

    @given(st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_expansion_is_monoidal(self, k1, k2):
        rb = parse_rules(SAMPLE)
        rule = rb.get("E6", "D5xT1", 1).primary
        prod = set()
        for (w1, q1) in rule.expand(k1):
            for (w2, q2) in rule.expand(k2):
                prod.add((tuple(a + b for a, b in zip(w1, w2)), q1 + q2))
        assert prod <= set(rule.expand(k1 + k2))
