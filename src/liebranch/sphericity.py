"""Dense-orbit tests for Borel subgroups of reductive subgroups.

Fix a simple group G, a parabolic P_i (maximal, at node i) and a catalog
subgroup H.  The flag variety G/P_i is H-spherical when a Borel subgroup
B_H has a dense orbit; equivalently ``lie(B_H) + Ad(g) lie(P_i) = lie(G)``
for generic g.

Two test styles are implemented:

- an orbit test on the open cell: the cell is identified with the span N
  of the negative root spaces not covered by lie(H) + lie(P_i), and the
  tangent space of the B_H-orbit through a point X of N is spanned by the
  projections of [u, X] for u in the torus and the raising vectors of the
  Levi part of B_H at P_i.  Density of the orbit at a generic X decides
  sphericity, and an explicit X with full tangent rank is an exact
  certificate.
- a translation test: pick a random n in the opposite nilradical and
  check rank(lie(B_H) + exp(ad n) lie(P_i)) directly.  Since lie(P_i) is
  spanned by basis vectors, the rank equals dim lie(P_i) plus the rank of
  the projection of exp(-ad n) lie(B_H) onto the remaining coordinates.
  Full rank modulo a prime certifies full rank over Q, so a hit is exact;
  a miss after all trials is reported as sampled evidence.

The number of generators of the ring of functions on the open cell that
are eigenvectors of B_H (for spherical pairs) is ``dim N - d + 1`` where
d is the generic orbit dimension of the unipotent part of the Levi of
B_H; this is exposed as ``invariant_ring_dim``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from .chevalley import chevalley_basis, neg
from .embeddings import Embedding
from .linalg import SpanMod, SpanQ, derive_prime, is_probable_prime
from .rootsys import LieError, SimpleType, TypeSpec, root_system


def _simple(t):
    if isinstance(t, SimpleType):
        return t
    spec = TypeSpec.parse(str(t))
    if len(spec.factors) != 1 or spec.torus:
        raise LieError(f"not a simple type: {t}")
    return spec.factors[0]


def flag_dimension(g, node):
    rs = root_system(_simple(g))
    if not 1 <= node <= rs.rank:
        raise LieError(f"node {node} out of range for {g}")
    return sum(1 for a in rs.positive_roots if a[node - 1] > 0)


def subseed(seed, *tags):
    """Deterministic derived seed for one subtask."""
    text = ":".join([str(seed)] + [str(t) for t in tags])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class SphericitySetup:
    """Orbit-test data for one (subgroup, node) pair."""

    def __init__(self, emb: Embedding, node: int):
        self.emb = emb
        self.node = node
        self.cb = chevalley_basis(emb.ambient)
        rs = self.cb.rs
        if not 1 <= node <= rs.rank:
            raise LieError(f"node {node} out of range for {emb.ambient}")
        self.flag_dim = flag_dimension(emb.ambient, node)
        if emb.kind in ("subsystem", "levi"):
            self.mode = "roots"
            self._init_roots()
        elif emb.kind in ("folded", "derived"):
            self.mode = "span"
            self._init_span()
        else:
            raise LieError(f"{emb.name}: no orbit test for kind {emb.kind}")

    # -- mode "roots": H spanned by root spaces of G -------------------------

    def _init_roots(self):
        cb, rs, i = self.cb, self.cb.rs, self.node - 1
        h_pos = set(self.emb.h_positive_roots_in_g())
        assert all(a in rs.index for a in h_pos)
        self.n_roots = [
            a for a in rs.positive_roots if a[i] > 0 and a not in h_pos
        ]
        self.n_dim = len(self.n_roots)
        self._n_index = {
            cb.root_index[neg(a)]: k for k, a in enumerate(self.n_roots)
        }
        self.levi_vectors = [
            cb.x(b) for b in sorted(h_pos) if b[i] == 0
        ]
        self.torus_vectors = [cb.h(j) for j in range(rs.rank)]
        self.removed = len(h_pos) - len(self.levi_vectors)
        assert self.n_dim + self.removed == self.flag_dim

    # -- mode "span": H known by a spanning set ------------------------------

    def _init_span(self):
        cb, rs, i = self.cb, self.cb.rs, self.node - 1
        span = SpanQ(cb.dim)
        # parabolic first: unit vectors, so the leftover coordinates are
        # negative root spaces of the open cell
        for k, a in enumerate(rs.positive_roots):
            span.add(cb.to_dense({k: 1}))
            if a[i] == 0:
                span.add(cb.to_dense({cb.m + k: 1}))
        for j in range(rs.rank):
            span.add(cb.to_dense(cb.h(j)))
        for v in self.emb.lie_h_vectors():
            span.add(cb.to_dense(v))
        self._span = span
        self.n_coords = span.nonpivot_columns()
        self.n_dim = len(self.n_coords)
        for k in self.n_coords:
            a = cb.signed_root_of_index(k)
            assert a is not None and min(a) < 0 and a[i] < 0
        pos_vecs, _ = self.emb._folded_root_vectors()
        self.levi_vectors = []
        for v in pos_vecs:
            roots = [cb.signed_root_of_index(k) for k in v]
            if all(a[i] == 0 for a in roots):
                self.levi_vectors.append(v)
        self.torus_vectors = list(self.emb.h_gens())

    # -- common ----------------------------------------------------------------

    def project(self, u):
        """Class of a sparse algebra element in the cell coordinates."""
        if self.mode == "roots":
            out = [0] * self.n_dim
            for k, c in u.items():
                pos = self._n_index.get(k)
                if pos is not None:
                    out[pos] = c
            return out
        dense = self._span.reduce(self.cb.to_dense(u))
        return [dense[k] for k in self.n_coords]

    def point_from_cell(self, coeffs):
        """Sparse element from cell coordinates."""
        if self.mode == "roots":
            return {
                self.cb.root_index[neg(a)]: c
                for a, c in zip(self.n_roots, coeffs)
                if c
            }
        return {k: c for k, c in zip(self.n_coords, coeffs) if c}

    def point_from_neg_roots(self, roots):
        """Sparse element -- sum of X_{-a} over the given positive roots a."""
        return {
            self.cb.root_index[neg(tuple(a))]: 1 for a in roots
        }

    def tangent_rank(self, x, include_torus=True):
        gens = list(self.levi_vectors)
        if include_torus:
            gens = list(self.torus_vectors) + gens
        span = SpanQ(self.n_dim)
        for u in gens:
            span.add(self.project(self.cb.bracket(u, x)))
            if span.rank == self.n_dim:
                break
        return span.rank

    def dense_orbit(self, x):
        """True when the Borel orbit through the cell point x is dense."""
        return self.tangent_rank(x, include_torus=True) == self.n_dim

    def random_point(self, rng):
        while True:
            coeffs = [rng.randint(-9, 9) for _ in range(self.n_dim)]
            if any(coeffs) or self.n_dim == 0:
                return self.point_from_cell(coeffs)

    def find_witness(self, seed=0, trials=8):
        """Search for a cell point with dense Borel orbit.

        Returns (point, trial_index) or (None, trials).
        """
        if self.n_dim == 0:
            return {}, 0
        rng = random.Random(subseed(seed, "witness", self.emb.name, self.node))
        for t in range(trials):
            x = self.random_point(rng)
            if self.dense_orbit(x):
                return x, t
        return None, trials

    def generic_orbit_dim(self, seed=0, trials=8):
        """Largest unipotent-Levi orbit dimension seen over sampled points.

        A single sequential random stream makes the result monotone in the
        trial count for a fixed seed.
        """
        rng = random.Random(subseed(seed, "orbit", self.emb.name, self.node))
        best = 0
        for _ in range(trials):
            x = self.random_point(rng)
            best = max(best, self.tangent_rank(x, include_torus=False))
        return best

    def invariant_ring_dim(self, seed=0, trials=8):
        return self.n_dim - self.generic_orbit_dim(seed, trials) + 1

    def describe_point(self, x):
        """Readable form of a cell point: [(coeff, positive root), ...]."""
        out = []
        for k, c in sorted(x.items()):
            a = self.cb.signed_root_of_index(k)
            out.append((c, tuple(-v for v in a)))
        return out


def generic_translate_test(emb: Embedding, node: int, seed=0, trials=8, prime=None):
    """Randomized translation test; returns (is_spherical, trial_or_count).

    With ``prime`` set the ranks are computed modulo that prime (a full
    rank is still an exact certificate); otherwise exactly over Q.
    """
    cb = chevalley_basis(emb.ambient)
    rs = cb.rs
    i = node - 1
    cell = [k for k, a in enumerate(rs.positive_roots) if a[i] > 0]
    neg_idx = [cb.m + k for k in cell]
    target = len(neg_idx)
    bvecs = [cb.to_dense(v) for v in emb.borel_h_vectors()]
    rng = random.Random(subseed(seed, "translate", emb.name, node))
    for t in range(trials):
        n = {cb.m + k: rng.randint(-9, 9) for k in cell}
        n = {k: c for k, c in n.items() if c}
        cols = cb.ad_columns({k: -c for k, c in n.items()})
        if prime is None:
            span = SpanQ(target)
        else:
            span = SpanMod(target, prime)
        for v in bvecs:
            w = cb.exp_ad_apply(cols, v, prime=prime)
            row = [w[k] for k in neg_idx]
            span.add(row)
            if span.rank == target:
                break
        if span.rank == target:
            return True, t
    return False, trials


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


def classify_pair(emb: Embedding, node: int, seed=0, trials=8, prime="auto"):
    """Decide sphericity of G/P_node under one catalog subgroup.

    ``prime`` is "auto" (derived from the seed), "off"/None (ranks over
    Q), or a prime above dim g, so that exp(ad n) can divide by every k.
    """
    if trials < 1:
        raise LieError(f"trials must be at least 1, got {trials}")
    p = None
    if prime not in ("auto", "off", None):
        p = int(prime)
        dim = chevalley_basis(emb.ambient).dim
        if not (p > dim and is_probable_prime(p)):
            raise LieError(
                f"modulus must be a prime above dim {emb.ambient} = {dim}, got {p}"
            )
    fd = flag_dimension(emb.ambient, node)
    bd = emb.borel_dim()
    if bd < fd:
        return ClassifyRow(
            emb.name, emb.kind, node, fd, bd, "not-spherical", "dimension", "exact"
        )
    if emb.kind == "typeonly":
        return ClassifyRow(
            emb.name, emb.kind, node, fd, bd, "undecided", "none", "none"
        )
    use_translate = emb.kind in ("folded", "derived") or emb.ambient.rank == 8
    if not use_translate:
        setup = SphericitySetup(emb, node)
        x, t = setup.find_witness(seed=seed, trials=trials)
        if x is not None:
            return ClassifyRow(
                emb.name, emb.kind, node, fd, bd, "spherical", "orbit", "exact",
                witness=setup.describe_point(x),
            )
        return ClassifyRow(
            emb.name, emb.kind, node, fd, bd, "not-spherical", "orbit", "sampled"
        )
    if prime == "auto":
        p = derive_prime(subseed(seed, "prime", emb.name, node))
    ok, t = generic_translate_test(emb, node, seed=seed, trials=trials, prime=p)
    if ok:
        return ClassifyRow(
            emb.name, emb.kind, node, fd, bd, "spherical", "translate", "exact"
        )
    return ClassifyRow(
        emb.name, emb.kind, node, fd, bd, "not-spherical", "translate", "sampled"
    )


def classify_group(catalog, gname: str, seed=0, trials=8, prime="auto"):
    """All (subgroup, node) verdicts for one ambient group, catalog order."""
    rows = []
    for emb in catalog.entries(gname):
        for node in range(1, emb.ambient.rank + 1):
            rows.append(classify_pair(emb, node, seed=seed, trials=trials, prime=prime))
    return rows


def duality_consistent(rows, g):
    """The spherical set must be stable under the diagram's duality map."""
    rs = root_system(_simple(g))
    verdicts = {(r.h_name, r.node): r.verdict for r in rows}
    for (h, node), v in verdicts.items():
        dual = rs.dual_node(node)
        if verdicts.get((h, dual)) != v:
            return False
    return True
