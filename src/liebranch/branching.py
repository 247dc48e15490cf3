"""Closed-form branching rules for the spherical pairs.

For every spherical (subgroup, node) pair the restriction of V(k*omega)
is multiplicity free and its highest weights form a finitely generated
monoid.  A rule file records the generators: each generator has a degree
(its contribution to k), a subgroup weight, and a torus charge when the
subgroup has a central torus.  Expanding a rule at degree k enumerates
all monomials in the generators of total degree k; bounded rules
("<= k") carry an explicit slack generator of degree one and weight
zero, so expansion is always at exact degree.

Every rule is stated for res V(k*omega_i), the module that `branch`
labels and `mult` computes; the paper's rules for res V*(k*omega_i) are
their H-duals.  Since V(k*omega_{i*}) = V(k*omega_i)*, the rule at node
i* is the H-dual of the rule at i: a rule file states one of the two,
and loading derives the other (`Rule.dual`).  `verify_rule` compares an
expansion against the exact character-level decomposition of that
module, one restriction per degree.

A rule file has the grammar of `embeddings.data_lines`: a ``format 1``
header, then ``rule`` and ``rulevariant <label>`` lines.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from .characters import decompose
from .embeddings import data_lines, read_data_file, resolve_data_dir
from .rootsys import (
    LieError, SimpleType, TypeSpec, product_system, root_system, simple_type,
)


@dataclass(frozen=True)
class Generator:
    degree: int
    weight: tuple
    charge: int = 0


@dataclass(frozen=True)
class Rule:
    ambient: SimpleType
    h_name: str
    node: int
    generators: tuple
    bounded: bool
    label: str | None = None  # None marks the primary rule for its triple

    def expand(self, k):
        """Highest-weight classes of the degree-k expansion, with counts."""
        if k < 0:
            raise LieError("expansion degree must be nonnegative")
        out = Counter()
        gens = self.generators
        rank = len(gens[0].weight)

        def rec(idx, left, weight, charge):
            if idx == len(gens):
                if left == 0:
                    out[(tuple(weight), charge)] += 1
                return
            g = gens[idx]
            top = left // g.degree
            for e in range(top + 1):
                rec(
                    idx + 1,
                    left - e * g.degree,
                    [w + e * gw for w, gw in zip(weight, g.weight)],
                    charge + e * g.charge,
                )

        rec(0, k, [0] * rank, 0)
        return out

    def dual(self):
        """The rule at node i*: V(k*omega_{i*}) = V(k*omega_i)*, so each
        generator (d, nu, q) becomes its H-dual (d, -w0 nu, -q)."""
        perm = product_system(TypeSpec.parse(self.h_name)).dual_perm
        gens = tuple(
            Generator(g.degree, tuple(g.weight[p] for p in perm), -g.charge)
            for g in self.generators
        )
        node = root_system(self.ambient).dual_node(self.node)
        return Rule(self.ambient, self.h_name, node, gens, self.bounded, self.label)


@dataclass
class RuleEntry:
    primary: Rule
    variants: list = field(default_factory=list)


def _rule_key(g, h, node):
    """Rule-book key: subgroup names are read as types, so d5xt1 names
    D5xT1."""
    return (str(g), str(TypeSpec.parse(h)), node)


class RuleBook:
    """The stated rules, closed under the diagram duality: a line at a
    node i != i* also gives the rule at i*, its H-dual.  A primary rule
    stated at both i and i*, or a primary rule at i = i* that is not its
    own H-dual, is an error."""

    def __init__(self, rules):
        stated = list(rules)
        primary = {
            _rule_key(r.ambient, r.h_name, r.node) for r in stated if r.label is None
        }
        self.rules = list(stated)
        for r in stated:
            d = r.dual()
            if d.node != r.node:
                if r.label is None and _rule_key(d.ambient, d.h_name, d.node) in primary:
                    raise LieError(
                        f"rules for {r.ambient} {r.h_name} at nodes {r.node} and "
                        f"{d.node}: state one, the other is its H-dual"
                    )
                self.rules.append(d)
            elif r.label is None and Counter(d.generators) != Counter(r.generators):
                raise LieError(
                    f"rule for {r.ambient} {r.h_name} node {r.node} is not its own H-dual"
                )
        self.by_key = {}
        for r in self.rules:
            key = _rule_key(r.ambient, r.h_name, r.node)
            if r.label is None:
                if key in self.by_key:
                    raise LieError(f"duplicate rule for {key}")
                self.by_key[key] = RuleEntry(r)
        for r in self.rules:
            if r.label is not None:
                key = _rule_key(r.ambient, r.h_name, r.node)
                if key not in self.by_key:
                    raise LieError(f"variant without a primary rule: {key}")
                self.by_key[key].variants.append(r)

    def get(self, g, h, node):
        entry = self.by_key.get(_rule_key(g, h, node))
        if entry is None:
            raise LieError(f"no branching rule for {g} {h} node {node}")
        return entry


_LHS_TERM = re.compile(r"^(?:(\d+)\*)?a(\d+)$")
_RHS_TERM = re.compile(r"(\((?:a\d+\+)*a\d+\)|a\d+)\*l(\d+)")
_CHARGE_TERM = re.compile(r"([+-]?)(?:(\d+)\*)?a(\d+)")


def _parse_degrees(text):
    if text.endswith("<=k"):
        bounded, body = True, text[:-3]
    elif text.endswith("=k"):
        bounded, body = False, text[:-2]
    else:
        raise LieError("degree constraint must end in '= k' or '<= k'")
    degrees = {}
    for term in body.split("+"):
        m = _LHS_TERM.match(term)
        if not m:
            raise LieError(f"bad degree term {term!r}")
        idx = int(m.group(2))
        if idx in degrees:
            raise LieError(f"generator a{idx} repeated")
        degrees[idx] = int(m.group(1) or 1)
        if degrees[idx] < 1:
            raise LieError(f"generator a{idx} needs a degree of at least 1")
    n = len(degrees)
    if sorted(degrees) != list(range(1, n + 1)):
        raise LieError(f"generators must be a1..a{n}")
    return [degrees[i] for i in range(1, n + 1)], bounded


def _parse_weights(text, n_gens, rank):
    if not text:
        raise LieError("empty weight side after '->'")
    rebuilt = []
    weights = [[0] * rank for _ in range(n_gens)]
    for m in _RHS_TERM.finditer(text):
        rebuilt.append(m.group(0))
        node = int(m.group(2))
        if not 1 <= node <= rank:
            raise LieError(f"weight index l{node} out of range")
        coef = m.group(1).strip("()")
        for var in coef.split("+"):
            idx = int(var[1:])
            if not 1 <= idx <= n_gens:
                raise LieError(f"unknown generator {var}")
            weights[idx - 1][node - 1] += 1
    if "+".join(rebuilt) != text:
        raise LieError(f"cannot parse weight terms {text!r}")
    return weights


def _parse_charges(text, n_gens):
    if not text:
        raise LieError("empty charge form after '@'")
    charges = [0] * n_gens
    rebuilt = []
    for m in _CHARGE_TERM.finditer(text):
        if rebuilt and not m.group(1):  # only the first term may omit its sign
            raise LieError(f"cannot parse charge form {text!r}")
        rebuilt.append(m.group(0))
        sign = -1 if m.group(1) == "-" else 1
        coef = int(m.group(2) or 1)
        idx = int(m.group(3))
        if not 1 <= idx <= n_gens:
            raise LieError(f"unknown generator a{idx} in charge form")
        charges[idx - 1] += sign * coef
    if "".join(rebuilt) != text:
        raise LieError(f"cannot parse charge form {text!r}")
    return charges


def _parse_rule_line(payload, label):
    head, sep, tail = payload.partition(":")
    if not sep:
        raise LieError("missing ':'")
    fields = head.split()
    if len(fields) != 3:
        raise LieError("expected '<G> <H> <node> :'")
    gname, hname, node_text = fields
    ambient = simple_type(gname)
    try:
        node = int(node_text)
    except ValueError:
        raise LieError(f"bad node {node_text!r}") from None
    if not 1 <= node <= ambient.rank:
        raise LieError(f"node {node} out of range for {ambient}")
    lhs, arrow, rhs = tail.replace(" ", "").partition("->")
    if not arrow:
        raise LieError("missing '->'")
    degrees, bounded = _parse_degrees(lhs)
    hspec = TypeSpec.parse(hname)
    rank = hspec.rank_ss
    weight_text, at, charge_text = rhs.partition("@")
    weights = _parse_weights(weight_text, len(degrees), rank)
    if at:
        if hspec.torus == 0:
            raise LieError("charge form for a subgroup without torus")
        charges = _parse_charges(charge_text, len(degrees))
    else:
        charges = [0] * len(degrees)
    gens = [
        Generator(d, tuple(w), q)
        for d, w, q in zip(degrees, weights, charges)
    ]
    if bounded:
        gens.append(Generator(1, (0,) * rank, 0))
    return Rule(ambient, hname, node, tuple(gens), bounded, label)


def parse_rules(text):
    rules = []
    for ln, head, rest in data_lines(text, "line"):
        try:
            if head == "rule":
                rules.append(_parse_rule_line(rest, None))
            elif head == "rulevariant":
                fields = rest.split(None, 1)
                if len(fields) != 2:
                    raise LieError("expected 'rulevariant <label> <rule>'")
                rules.append(_parse_rule_line(fields[1], fields[0]))
            else:
                raise LieError(f"unknown directive {head!r}")
        except LieError as e:
            raise LieError(f"line {ln}: {e}") from None
    return RuleBook(rules)


def load_rules(data_dir=None):
    """The rule book of the resolved data directory, parsed once per path."""
    return _load_rules_at(resolve_data_dir(data_dir))


@lru_cache(maxsize=None)
def _load_rules_at(data_dir):
    return parse_rules(read_data_file(data_dir, "rules.txt"))


def verify_rule(emb, rule, k):
    """True when the degree-k expansion is the exact decomposition of
    res V(k*omega_i), restricted once."""
    lam = tuple(k if j == rule.node - 1 else 0 for j in range(emb.ambient.rank))
    return decompose(emb, lam) == dict(rule.expand(k))


def discover_generators(emb, node, k_probe=3):
    """Reconstruct monoid generators from decompositions up to k_probe.

    At each degree the classes not explained by lower-degree generators
    become new generators; a negative difference means the restrictions
    are not generated by a free monoid and raises.
    """
    gens = []
    for k in range(1, k_probe + 1):
        lam = tuple(k if j == node - 1 else 0 for j in range(emb.ambient.rank))
        actual = Counter(decompose(emb, lam))
        probe = Rule(emb.ambient, emb.name, node, tuple(gens), False) if gens else None
        expected = probe.expand(k) if probe else Counter()
        diff = actual.copy()
        diff.subtract(expected)
        for key, c in sorted(diff.items()):
            if c < 0:
                raise LieError(
                    f"{emb.name} node {node}: class {key} overcounted at degree {k}"
                )
            for _ in range(c):
                gens.append(Generator(k, key[0], key[1]))
    return gens
