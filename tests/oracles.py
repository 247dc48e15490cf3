"""Reference implementations that only the tests call.

Each oracle recomputes, by a second and simpler route, something the
package computes in production, or checks a fact about the data that
loading does not check.  None of them is imported by the package.

- ``kernel``: nullspace of a ``linalg.SpanQ``.  Used by ``centralizer``
  and checked on its own against rank-nullity.
- ``centralizer``: centralizer of a set of elements of a Chevalley basis,
  over Q.  Checks the hand-written A1 line of E7 > A1xF4 in
  ``data/embeddings.txt``, which production reads without solving for it.
- ``exp_ad_apply_exact``: exp(ad u) over Q.  Compared against the
  production ``ChevalleyBasis.exp_ad_apply``, which works modulo a prime.
- ``translate_test_exact``: the translate test with ranks over Q.
  Compared against ``sphericity.generic_translate_test``, which takes its
  ranks modulo ``sphericity.PRIME``.
- ``validate`` (with ``check_span_dimension`` and ``h_dim``): the
  defining relations of a catalog entry's generators, the Serre relations
  among them, and the dimension of the span of Lie(H).  Loading
  (``embeddings._check_roots``) checks only what the root system of G
  decides; these need a Chevalley basis.
- ``h_positive_roots_in_g``: the positive roots of a root subgroup, read
  off its simple-root images.  Compared against the open cell that
  ``SphericitySetup`` builds from ``Embedding.lie_h_vectors``.
- ``cross_check_subsystems``: catalog entries with both a removal node
  and explicit root lines describe the same subsystem.  Loading checks
  only that each root line lies in the node's subsystem.
- ``point_from_neg_roots``: a cell point from a list of roots, for the
  recorded dense-orbit witnesses checked by ``SphericitySetup.dense_orbit``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from liebranch.chevalley import chevalley_basis, neg
from liebranch.embeddings import subsystem_simple_images
from liebranch.linalg import SpanQ
from liebranch.rootsys import root_system
from liebranch.sphericity import flag_columns, subseed


# -- linear algebra and Chevalley bases over Q ---------------------------------


def kernel(span):
    """Basis of the vectors annihilated by every row added to a SpanQ.

    One basis vector per non-pivot column f: 1 at f, minus the f-entry of
    each reduced row at that row's pivot, 0 elsewhere.
    """
    basis = []
    for f in span.nonpivot_columns():
        vec = [Fraction(0)] * span.dim
        vec[f] = Fraction(1)
        for row, p in zip(span.rows, span.pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return basis


def centralizer(cb, vectors, block=None):
    """Basis of the elements of span(e_k : k in block) commuting with all
    the given elements, as dense rows over Q (block: all of g by default)."""
    block = list(range(cb.dim) if block is None else block)
    span = SpanQ(len(block))
    for v in vectors:
        cols = [cb.bracket({k: 1}, v) for k in block]
        for i in sorted(set().union(*cols)):
            span.add([col.get(i, 0) for col in cols])
    basis = []
    for kv in kernel(span):
        vec = [Fraction(0)] * cb.dim
        for k, c in zip(block, kv):
            vec[k] = c
        basis.append(vec)
    for bvec in basis:
        bu = {j: c for j, c in enumerate(bvec) if c}
        for v in vectors:
            assert not cb.bracket(bu, v), "centralizer solve failed"
    return basis


def exp_ad_apply_exact(cb, ad_cols, v):
    """exp(ad u) applied to a dense vector over Q, as a list of Fractions,
    given the sparse columns of a nilpotent ad u: the sum of the iterates
    ad(u)^k v / k! until one vanishes."""
    term = [Fraction(x) for x in v]
    out = list(term)
    for k in range(1, cb.dim + 1):
        nxt = [Fraction(0)] * cb.dim
        for j, c in enumerate(term):
            if c:
                for i, a in ad_cols[j].items():
                    nxt[i] += c * a / k
        if not any(nxt):
            break
        term = nxt
        out = [x + y for x, y in zip(out, term)]
    return out


def translate_test_exact(emb, node, seed=0, trials=8):
    """``generic_translate_test`` with its ranks over Q: the same random
    translates n, the same rows of exp(-ad n) lie(B_H), one SpanQ each."""
    cb = chevalley_basis(emb.ambient)
    flag = flag_columns(cb, node)
    bvecs = [cb.to_dense(v) for v in emb.borel_h_vectors()]
    rng = random.Random(subseed(seed, "translate", emb.name, node))
    for t in range(trials):
        n = {k: c for k in flag if (c := rng.randint(-9, 9))}
        cols = cb.ad_columns({k: -c for k, c in n.items()})
        span = SpanQ(len(flag))
        for v in bvecs:
            w = exp_ad_apply_exact(cb, cols, v)
            span.add([w[k] for k in flag])
        if span.rank == len(flag):
            return True, t
    return False, trials


# -- catalog entries -------------------------------------------------------------


def h_dim(emb):
    """Dimension of Lie(H) from its type."""
    n = emb.spec.torus
    for f in emb.spec.factors:
        n += 2 * root_system(f).n_pos + f.rank
    return n


def _as_exact(u):
    return {k: Fraction(c) for k, c in u.items() if c}


def _scale(u, c):
    return {k: v * c for k, v in u.items() if v * c}


def validate(emb):
    """Check the defining relations of the generators; raises on failure."""
    if emb.kind == "typeonly":
        return
    cb = chevalley_basis(emb.ambient)
    xg, yg, hg, _ = emb._build()
    n = emb.rank_ss
    CH = emb._h_cartan_matrix()
    for i in range(n):
        assert cb.bracket(xg[i], yg[i]) == _as_exact(hg[i]), (emb.name, i)
        for j in range(n):
            got = cb.bracket(hg[i], xg[j])
            want = _scale(xg[j], CH[i][j])
            assert _as_exact(got) == _as_exact(want), (emb.name, i, j)
            if i != j:
                assert not cb.bracket(xg[i], yg[j]), (emb.name, i, j)
                # Serre relation on the raising generators
                v = xg[j]
                for _ in range(1 - CH[i][j]):
                    v = cb.bracket(xg[i], v)
                assert not v, (emb.name, i, j)
    check_span_dimension(emb)


def check_span_dimension(emb):
    cb = chevalley_basis(emb.ambient)
    span = SpanQ(cb.dim)
    for v in emb.lie_h_vectors():
        span.add(cb.to_dense(v))
    assert span.rank == h_dim(emb), (emb.name, span.rank, h_dim(emb))


def h_positive_roots_in_g(emb):
    """For subsystem and levi entries: positive roots of H as G-roots."""
    assert emb.kind in ("subsystem", "levi"), emb.name
    rs = root_system(emb.ambient)
    betas = emb.simple_images
    out = []
    at = 0
    for f in emb.spec.factors:
        frs = root_system(f)
        fb = betas[at : at + f.rank]
        at += f.rank
        for a in frs.positive_roots:
            img = tuple(
                sum(c * b[k] for c, b in zip(a, fb)) for k in range(rs.rank)
            )
            assert img in rs.index, (emb.name, a)
            out.append(img)
    return out


def cross_check_subsystems(catalog):
    """Entries with explicit root images must describe the same root
    subsystem as their extended-diagram removal node."""
    problems = []
    for r in catalog.records:
        if r.kind != "subsystem" or r.node is None:
            continue
        factors, _ = subsystem_simple_images(r.ambient, r.node)
        from_node = sorted(b for _, ordered in factors for b in ordered)
        explicit = sorted(r.simple_images)
        if from_node != explicit:
            problems.append((str(r.ambient), r.name, from_node, explicit))
    return problems


# -- sphericity --------------------------------------------------------------------


def point_from_neg_roots(setup, roots):
    """Sparse element -- sum of X_{-a} over the given positive roots a."""
    return {setup.cb.root_index[neg(tuple(a))]: 1 for a in roots}
