"""Dense-orbit tests for Borel subgroups of reductive subgroups.

Fix a simple group G, a parabolic P_i (maximal, at node i) and a catalog
subgroup H.  The flag variety G/P_i is H-spherical when a Borel subgroup
B_H has a dense orbit; equivalently ``lie(B_H) + Ad(g) lie(P_i) = lie(G)``
for generic g.

One cell construction serves every catalog kind with generators.  The
quotient g/lie(P_i) has the basis X_{-a} over the positive roots a with
a[i] > 0 (``flag_columns``).  The image of lie(H) there, given by the
vectors of ``lie_h`` (torus plus bracketed root vectors, the same
description for every kind), is reduced in column order; the non-pivot
columns span a complement N of lie(H) + lie(P_i), the open cell.  For H
spanned by root spaces of G these are exactly the roots through node i
that are not roots of H.

Two tests decide the pairs that the dimension count leaves open.  The
folded entries take the translation test; every other kind with
generators, in every group from G2 to E8, takes the orbit test:

- an orbit test on the open cell: the tangent space of the B_H-orbit
  through a point X of N is spanned by the classes in N of [u, X] for u
  in the torus of H and the raising vectors of H whose roots have
  a[i] = 0 (the Levi part of B_H at P_i).  Density of the orbit at a
  generic X decides sphericity.  The rank is taken modulo PRIME, with
  the rational cell projection reduced once per setup; a full rank
  modulo any prime is full over Q, so an explicit X with full tangent
  rank is an exact certificate that can be rechecked over Q.
- a translation test: pick a random n in the span of the flag columns and
  check rank(lie(B_H) + exp(ad n) lie(P_i)) directly.  Since lie(P_i) is
  spanned by basis vectors, the rank equals dim lie(P_i) plus the rank of
  the flag-column coordinates of exp(-ad n) lie(B_H).  Its ranks are
  taken modulo PRIME too, so a hit is exact.

Each test tries TRIALS random cell points or translates; a miss after all
of them is reported as sampled evidence.

Neither test has a mode over Q.  The tests compare both against exact
ranks over Q; exp(ad n) and the translate test over Q are test oracles
(``tests/oracles.py``), not package code.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from functools import lru_cache

from .chevalley import chevalley_basis
from .embeddings import Embedding
from .linalg import SpanMod, SpanQ
from .rootsys import LieError, neg, root_system, simple_type


# Modulus of both production rank tests: the largest prime below 2^30.
# Any prime is sound, because a rank that is full modulo p is full over Q
# (the entries have denominators prime to p, and a minor that is nonzero
# modulo p is nonzero), so a hit is exact at any prime.  It exceeds
# dim E8 = 248, so exp(ad n) can divide by every k.  Below 2^30 every
# residue is one CPython digit, which keeps the products and reductions of
# project and exp_ad_apply on the interpreter's single-digit path.  SpanMod
# packs a row into one int with a slot of (p + dim * p^2).bit_length()
# bits per column, about 2 * 30 + log2(dim): 66 bits for the 56-column
# E8 > E7xA1 node-8 cell and 67 for the 106 columns of the largest E8 flag.
PRIME = 2**30 - 35

# Random points (orbit test) or translates (translate test) tried per pair
# before a miss is reported as a sampled not-spherical verdict.
TRIALS = 8


def flag_dimension(g, node):
    rs = root_system(simple_type(g))
    if not 1 <= node <= rs.rank:
        raise LieError(f"node {node} out of range for {g}")
    return sum(1 for a in rs.positive_roots if a[node - 1] > 0)


def flag_columns(cb, node):
    """Basis indices of X_{-a} with a[node] > 0, in root order: a basis of
    g/lie(P_node)."""
    if not 1 <= node <= cb.rank:
        raise LieError(f"node {node} out of range for {cb.type}")
    i = node - 1
    return [cb.m + k for k, a in enumerate(cb.rs.positive_roots) if a[i] > 0]


@lru_cache(maxsize=None)
def lie_h(emb: Embedding):
    """Lie(H) inside the Chevalley basis of G, as lists of sparse vectors
    ``(torus, raising, lowering)``.

    The torus is spanned by the rows of ``emb.weight_image()``: the simple
    coroots of H, then the central torus of a Levi entry.  The raising and
    lowering vectors come one per positive root of H, in
    ``emb.hsys.positive_roots`` order, from one walk over the product root
    system: a simple root's are its generator terms, and any other root
    a's are [x_j, x_b] and [y_j, y_b] for the first j with b = a - alpha_j
    a positive root, built before a since it is lower.  The cached lists
    are shared by every caller, which reads them only.
    """
    cb = chevalley_basis(emb.ambient)
    torus = [cb.h_vector(row) for row in emb.weight_image().rows]
    hs, index = emb.hsys, cb.root_index
    simple = [
        ({index[b]: s for s, b in terms}, {index[neg(b)]: s for s, b in terms})
        for terms in emb.gen_terms
    ]
    built = {}
    for a in hs.positive_roots:
        if sum(a) == 1:
            built[a] = simple[a.index(1)]
            continue
        for j, (x, y) in enumerate(simple):
            b = a[:j] + (a[j] - 1,) + a[j + 1 :]
            if b in built:
                built[a] = cb.bracket(x, built[b][0]), cb.bracket(y, built[b][1])
                if not all(built[a]):
                    raise LieError(f"{emb.name}: the bracket for root {a} vanishes")
                break
        else:
            raise LieError(f"{emb.name}: cannot reach root {a}")
    return (
        torus,
        [built[a][0] for a in hs.positive_roots],
        [built[a][1] for a in hs.positive_roots],
    )


def subseed(seed, *tags):
    """Deterministic derived seed for one subtask."""
    text = ":".join([str(seed)] + [str(t) for t in tags])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class SphericitySetup:
    """Orbit-test data for one (subgroup, node) pair."""

    def __init__(self, emb: Embedding, node: int):
        self.emb = emb
        self.node = node
        self.cb = cb = chevalley_basis(emb.ambient)
        cols = flag_columns(cb, node)
        self.flag_dim = len(cols)
        # reduce the image of lie(H) in g/lie(P_i); a pivot is the first
        # nonzero column, so the cell columns depend only on that image
        torus, raising, lowering = lie_h(emb)
        span = SpanQ(self.flag_dim)
        for v in torus + raising + lowering:
            row = [v.get(k, 0) for k in cols]
            if any(row):
                span.add(row)
        cell = span.nonpivot_columns()
        self.n_dim = len(cell)
        self.n_coords = [cols[f] for f in cell]
        # _proj[k]: cell coordinates of basis vector k modulo lie(H) + lie(P_i)
        at = {f: pos for pos, f in enumerate(cell)}
        self._proj = {cols[f]: [(pos, 1)] for f, pos in at.items()}
        for row, p in zip(span.rows, span.pivots):
            self._proj[cols[p]] = [(at[f], -row[f]) for f in cell if row[f]]
        # the same coefficients as residues modulo PRIME
        self._proj_mod = {
            k: [(pos, w.numerator * pow(w.denominator, -1, PRIME) % PRIME)
                for pos, w in ent]
            for k, ent in self._proj.items()
        }
        i = node - 1
        self.levi_vectors = [
            v for v in raising
            if all(cb.signed_root_of_index(k)[i] == 0 for k in v)
        ]
        self.torus_vectors = torus

    def project(self, u, mod_prime=False):
        """Class of a sparse algebra element in the cell coordinates: exact
        over Q, or with ``mod_prime`` as residues modulo PRIME."""
        proj = self._proj_mod if mod_prime else self._proj
        out = [0] * self.n_dim
        for k, c in u.items():
            for pos, w in proj.get(k, ()):
                out[pos] += c * w
        if mod_prime:
            out = [x % PRIME for x in out]
        return out

    def point_from_cell(self, coeffs):
        """Sparse element from cell coordinates."""
        return {k: c for k, c in zip(self.n_coords, coeffs) if c}

    def tangent_rank(self, x):
        """Rank modulo PRIME of the tangent space at the cell point x of the
        B_H-orbit."""
        span = SpanMod(self.n_dim, PRIME)
        for u in self.torus_vectors + self.levi_vectors:
            span.add(self.project(self.cb.bracket(u, x), mod_prime=True))
            if span.rank == self.n_dim:
                break
        return span.rank

    def dense_orbit(self, x):
        """True when the Borel orbit through the cell point x is dense."""
        return self.tangent_rank(x) == self.n_dim

    def random_point(self, rng):
        while True:
            coeffs = [rng.randint(-9, 9) for _ in range(self.n_dim)]
            if any(coeffs) or self.n_dim == 0:
                return self.point_from_cell(coeffs)

    def find_witness(self, seed=0):
        """Search for a cell point with dense Borel orbit.

        Returns (point, trial_index) or (None, TRIALS).
        """
        if self.n_dim == 0:
            return {}, 0
        rng = random.Random(subseed(seed, "witness", self.emb.name, self.node))
        for t in range(TRIALS):
            x = self.random_point(rng)
            if self.dense_orbit(x):
                return x, t
        return None, TRIALS

    def describe_point(self, x):
        """Readable form of a cell point: [(coeff, positive root), ...]."""
        out = []
        for k, c in sorted(x.items()):
            a = self.cb.signed_root_of_index(k)
            out.append((c, neg(a)))
        return out


def generic_translate_test(emb: Embedding, node: int, seed=0):
    """Randomized translation test; returns (is_spherical, trial_or_count).

    The ranks are taken modulo PRIME, so a hit is an exact certificate.
    """
    cb = chevalley_basis(emb.ambient)
    flag = flag_columns(cb, node)
    target = len(flag)
    torus, raising, _ = lie_h(emb)
    bvecs = torus + raising
    rng = random.Random(subseed(seed, "translate", emb.name, node))
    for t in range(TRIALS):
        n = {k: rng.randint(-9, 9) for k in flag}
        n = {k: c for k, c in n.items() if c}
        cols = cb.ad_columns({k: -c for k, c in n.items()})
        span = SpanMod(target, PRIME)
        for v in bvecs:
            w = cb.exp_ad_apply(cols, v, PRIME)
            span.add([w.get(k, 0) for k in flag])
            if span.rank == target:
                break
        if span.rank == target:
            return True, t
    return False, TRIALS


@dataclass
class ClassifyRow:
    h_name: str
    kind: str
    node: int
    flag_dim: int
    borel_dim: int
    verdict: str  # "spherical" | "not-spherical" | "undecided"
    method: str  # "dimension" | "orbit" | "translate" | "none"
    certainty: str  # "exact" | "sampled" | "none"
    witness: list = field(default_factory=list)

    def as_dict(self):
        return {
            "subgroup": self.h_name,
            "kind": self.kind,
            "node": self.node,
            "flag_dim": self.flag_dim,
            "borel_dim": self.borel_dim,
            "verdict": self.verdict,
            "method": self.method,
            "certainty": self.certainty,
            "witness": [
                {"coeff": c, "root": list(a)} for c, a in self.witness
            ],
        }


def classify_pair(emb: Embedding, node: int, seed=0):
    """Decide sphericity of G/P_node under one catalog subgroup."""
    fd = flag_dimension(emb.ambient, node)
    bd = emb.borel_dim()
    witness = []
    if bd < fd:
        verdict, method, certainty = "not-spherical", "dimension", "exact"
    elif emb.kind == "typeonly":
        verdict, method, certainty = "undecided", "none", "none"
    elif emb.kind == "folded":
        ok, _ = generic_translate_test(emb, node, seed=seed)
        method = "translate"
        verdict, certainty = ("spherical", "exact") if ok else ("not-spherical", "sampled")
    else:
        setup = SphericitySetup(emb, node)
        x, _ = setup.find_witness(seed=seed)
        method = "orbit"
        if x is None:
            verdict, certainty = "not-spherical", "sampled"
        else:
            verdict, certainty = "spherical", "exact"
            witness = setup.describe_point(x)
    return ClassifyRow(
        emb.name, emb.kind, node, fd, bd, verdict, method, certainty, witness
    )


def classify_group(catalog, gname: str, seed=0):
    """All (subgroup, node) verdicts for one ambient group, catalog order."""
    rows = []
    for emb in catalog.entries(gname):
        for node in range(1, emb.ambient.rank + 1):
            rows.append(classify_pair(emb, node, seed=seed))
    return rows


def duality_consistent(rows, g):
    """The spherical set must be stable under the diagram's duality map."""
    rs = root_system(simple_type(g))
    verdicts = {(r.h_name, r.node): r.verdict for r in rows}
    for (h, node), v in verdicts.items():
        dual = rs.dual_node(node)
        if verdicts.get((h, dual)) != v:
            return False
    return True
