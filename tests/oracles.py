"""Reference implementations that only the tests call.

Each oracle recomputes, by a second and simpler route, something the
package computes in production, or checks a fact about the data that
loading does not check.  None of them is imported by the package.

- ``x``, ``h`` and ``to_dense``: basis elements X_a and H_i of a
  Chevalley basis, and a sparse element as a dense list.  Test inputs.
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
- ``n_roots`` and ``removed``: the roots of the cell coordinates of a
  ``SphericitySetup``, and the rank of the image of lie(H) in
  g/lie(P_i), recomputed from ``Embedding.lie_h_vectors``.
- ``generic_orbit_dim`` and ``invariant_ring_dim``: the generic orbit
  dimension d of the unipotent part of the Levi of B_H on the open cell
  N, and dim N - d + 1, the number of generators of the ring of
  B_H-eigenfunctions there.  The geometric count that the monoid rank of
  each branching rule is checked against.
- ``freudenthal_character``: the dominant character of V(lam) by
  Freudenthal's recursion summed over every positive root, its dominant
  weights found by a walk that tries every root at every step.  Compared
  against ``characters.dominant_character``, which sums over the orbits
  of the stabilizer of each weight and prunes the walk.
- ``restrict_weight``: the H-weight and torus charge of one G-weight,
  by the restriction rows and the coweight applied to it directly.  The
  production walks carry the image along instead
  (``Embedding.weight_image``); the full-orbit restriction oracle and
  the weight goldens use this.
- ``fundamental`` and ``dual_weight``: the fundamental weights, and -w0
  on weights, of a ``RootSystem``, simple or a product.  Test
  inputs, and the duality that characters and branching rules are
  checked against.
"""

from __future__ import annotations

import random
from fractions import Fraction

from liebranch.chevalley import chevalley_basis, neg
from liebranch.embeddings import subsystem_simple_images
from liebranch.linalg import SpanMod, SpanQ
from liebranch.rootsys import LieError, root_system
from liebranch.sphericity import PRIME, TRIALS, flag_columns, subseed


# -- linear algebra and Chevalley bases over Q ---------------------------------


def x(cb, a):
    """Basis element X_a for a signed root a."""
    return {cb.root_index[tuple(a)]: 1}


def h(cb, i):
    """Simple coroot H_i, 0-based."""
    return cb.h_vector([int(j == i) for j in range(cb.rank)])


def to_dense(cb, u):
    """A sparse element as a list of dim coefficients."""
    v = [0] * cb.dim
    for k, c in u.items():
        v[k] = c
    return v


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


def translate_test_exact(emb, node, seed=0):
    """``generic_translate_test`` with its ranks over Q: the same random
    translates n, the same rows of exp(-ad n) lie(B_H), one SpanQ each."""
    cb = chevalley_basis(emb.ambient)
    flag = flag_columns(cb, node)
    bvecs = [to_dense(cb, v) for v in emb.borel_h_vectors()]
    rng = random.Random(subseed(seed, "translate", emb.name, node))
    for t in range(TRIALS):
        n = {k: c for k in flag if (c := rng.randint(-9, 9))}
        cols = cb.ad_columns({k: -c for k, c in n.items()})
        span = SpanQ(len(flag))
        for v in bvecs:
            w = exp_ad_apply_exact(cb, cols, v)
            span.add([w[k] for k in flag])
        if span.rank == len(flag):
            return True, t
    return False, TRIALS


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
    xg, yg = emb._build()
    hg = [cb.h_vector(row) for row in emb.restriction_rows()]
    n = emb.rank_ss
    CH = emb.hsys.C
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
        span.add(to_dense(cb, v))
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


def n_roots(setup):
    """The positive roots a whose X_{-a} are the cell coordinates."""
    return [neg(setup.cb.signed_root_of_index(k)) for k in setup.n_coords]


def removed(setup):
    """Rank of the image of lie(H) in g/lie(P_i), over Q."""
    cols = flag_columns(setup.cb, setup.node)
    span = SpanQ(len(cols))
    for v in setup.emb.lie_h_vectors():
        span.add([v.get(k, 0) for k in cols])
    return span.rank


def unipotent_rank(setup, x):
    """Rank modulo PRIME of the tangent space at the cell point x of the
    orbit of the unipotent part of the Levi of B_H: the rank that
    ``SphericitySetup.tangent_rank`` takes without the torus of H."""
    span = SpanMod(setup.n_dim, PRIME)
    for u in setup.levi_vectors:
        span.add(setup.project(setup.cb.bracket(u, x), mod_prime=True))
    return span.rank


def generic_orbit_dim(setup, seed=0, trials=TRIALS):
    """Largest orbit dimension of the unipotent part of the Levi of B_H
    seen over sampled points of a ``SphericitySetup``'s cell.

    A single sequential random stream makes the result monotone in the
    trial count for a fixed seed.
    """
    rng = random.Random(subseed(seed, "orbit", setup.emb.name, setup.node))
    best = 0
    for _ in range(trials):
        x = setup.random_point(rng)
        best = max(best, unipotent_rank(setup, x))
    return best


def invariant_ring_dim(setup, seed=0, trials=TRIALS):
    """dim N - d + 1, d the generic orbit dimension: the number of
    generators of the ring of B_H-eigenfunctions on the open cell."""
    return setup.n_dim - generic_orbit_dim(setup, seed, trials) + 1


# -- weights -------------------------------------------------------------------


def freudenthal_character(rs, lam):
    """{dominant weight: multiplicity} of V(lam), over every positive root."""
    lam = tuple(lam)
    coeffs = {lam: (0,) * rs.rank}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for a, (_, wa) in zip(rs.positive_roots, rs.mirrors):
                nu = tuple(x - y for x, y in zip(mu, wa))
                if nu not in coeffs and all(c >= 0 for c in nu):
                    coeffs[nu] = tuple(x + y for x, y in zip(coeffs[mu], a))
                    nxt.append(nu)
        frontier = nxt
    mult = {lam: 1}
    for mu in sorted(coeffs, key=rs.height_key, reverse=True)[1:]:
        num = 0
        for a, (_, wa) in zip(rs.positive_roots, rs.mirrors):
            t = 1
            while True:
                nu = tuple(x + t * y for x, y in zip(mu, wa))
                m_up = mult.get(rs.dominant_signed(nu)[0])
                if m_up is None:
                    break
                num += m_up * rs.pair_wr(nu, a)
                t += 1
        shifted = [x + y + 2 for x, y in zip(lam, mu)]
        denom = sum(c * d * s for c, d, s in zip(coeffs[mu], rs.d, shifted))
        q, r = divmod(2 * num, denom)
        assert r == 0 and q > 0, (lam, mu)
        mult[mu] = q
    return mult


def restrict_weight(emb, mu):
    """H-weight (and torus charge, for entries with a torus) of a G-weight
    given in fundamental-weight coordinates."""
    rows = emb.restriction_rows()
    lam = tuple(sum(r[k] * mu[k] for k in range(len(mu))) for r in rows)
    charge = None
    if emb.coweight is not None:
        charge = sum(c * m for c, m in zip(emb.coweight, mu))
    return lam, charge


def fundamental(rs, i):
    """Fundamental weight of a RootSystem for 1-based node i."""
    if not 1 <= i <= rs.rank:
        raise LieError(f"node {i} out of range for {rs.type}")
    return tuple(1 if j == i - 1 else 0 for j in range(rs.rank))


def dual_weight(system, mu):
    """-w0 mu for a RootSystem, simple or a product."""
    return tuple(mu[system.dual_node(j + 1) - 1] for j in range(system.rank))
