"""Closed-form branching rules for the spherical pairs.

For every spherical (subgroup, node) pair the restriction of V(k*omega)
is multiplicity free and its highest weights form a finitely generated
monoid.  A rule file records the generators: each generator has a degree
(its contribution to k), a subgroup weight, and a torus charge when the
subgroup has a central torus.  Expanding a rule at degree k enumerates
all monomials in the generators of total degree k; bounded rules
("<= k") carry an explicit slack generator of degree one and weight
zero, so expansion is always at exact degree.

`verify_rule` compares an expansion against the exact character-level
decomposition with the node read both directly and through the diagram
duality, since a rule may be stated for the dual module.
"""

from __future__ import annotations

import os
import re
from collections import Counter
from dataclasses import dataclass, field

from .characters import decompose
from .embeddings import resolve_data_dir
from .rootsys import LieError, SimpleType, TypeSpec, root_system, simple_type

RULE_FILE_FORMAT = 1


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


@dataclass
class RuleEntry:
    primary: Rule
    variants: list = field(default_factory=list)


class RuleBook:
    def __init__(self, rules):
        self.rules = list(rules)
        self.by_key = {}
        for r in self.rules:
            key = (str(r.ambient), r.h_name, r.node)
            if r.label is None:
                if key in self.by_key:
                    raise LieError(f"duplicate rule for {key}")
                self.by_key[key] = RuleEntry(r)
        for r in self.rules:
            if r.label is not None:
                key = (str(r.ambient), r.h_name, r.node)
                if key not in self.by_key:
                    raise LieError(f"variant without a primary rule: {key}")
                self.by_key[key].variants.append(r)

    def get(self, g, h, node):
        entry = self.by_key.get((str(g), h, node))
        if entry is None:
            raise LieError(f"no branching rule for {g} {h} node {node}")
        return entry

    def triples(self):
        return sorted(self.by_key)


_LHS_TERM = re.compile(r"^(?:(\d+)\*)?a(\d+)$")
_RHS_TERM = re.compile(r"(\((?:a\d+\+)*a\d+\)|a\d+)\*l(\d+)")
_CHARGE_TERM = re.compile(r"([+-]?)(?:(\d+)\*)?a(\d+)")


def _parse_degrees(text):
    text = text.replace(" ", "")
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
    text = text.replace(" ", "")
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
    text = text.replace(" ", "")
    charges = [0] * n_gens
    rebuilt = []
    for m in _CHARGE_TERM.finditer(text):
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
    lhs, arrow, rhs = tail.partition("->")
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
    saw_format = False
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.startswith("format"):
                if line.split() != ["format", str(RULE_FILE_FORMAT)]:
                    raise LieError(f"unsupported format {line!r}")
                saw_format = True
            elif not saw_format:
                raise LieError(f"missing 'format {RULE_FILE_FORMAT}' header")
            elif line.startswith("rulevariant"):
                fields = line.split(None, 2)
                if len(fields) != 3:
                    raise LieError("expected 'rulevariant <label> <rule>'")
                rules.append(_parse_rule_line(fields[2], fields[1]))
            elif line.startswith("rule"):
                rules.append(_parse_rule_line(line[4:], None))
            else:
                raise LieError(f"unknown directive {line.split()[0]!r}")
        except LieError as e:
            raise LieError(f"line {ln}: {e}") from None
    return RuleBook(rules)


def load_rules(data_dir=None):
    path = os.path.join(resolve_data_dir(data_dir), "rules.txt")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise LieError(f"cannot read rule file: {e}") from None
    return parse_rules(text)


@dataclass
class VerifyResult:
    rule: Rule
    k: int
    direct: bool
    dual: bool

    @property
    def matched(self):
        return self.direct or self.dual


def verify_rule(emb, rule, k):
    """Compare the degree-k expansion against the exact decomposition.

    The expansion is checked against res V(k*omega_i) (direct) and
    res V(k*omega_{i*}) through the diagram duality (dual).
    """
    rs = root_system(emb.ambient)
    expected = dict(rule.expand(k))
    node, dnode = rule.node, rs.dual_node(rule.node)
    lam = tuple(k if j == node - 1 else 0 for j in range(rs.rank))
    direct = decompose(emb, lam) == expected
    if dnode == node:
        dual = direct
    else:
        dlam = tuple(k if j == dnode - 1 else 0 for j in range(rs.rank))
        dual = decompose(emb, dlam) == expected
    return VerifyResult(rule, k, direct, dual)


def discover_generators(emb, node, k_probe=3, reading="direct"):
    """Reconstruct monoid generators from decompositions up to k_probe.

    At each degree the classes not explained by lower-degree generators
    become new generators; a negative difference means the restrictions
    are not generated by a free monoid and raises.
    """
    rs = root_system(emb.ambient)
    use = node if reading == "direct" else rs.dual_node(node)
    gens = []
    for k in range(1, k_probe + 1):
        lam = tuple(k if j == use - 1 else 0 for j in range(rs.rank))
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
