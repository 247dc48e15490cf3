"""Exact characters and branching to catalog subgroups.

Weight multiplicities come from the Freudenthal recursion over the
dominant weights only (all arithmetic in plain integers, every division
checked).  The dominant weights are walked down from the highest one by
positive roots; mu - alpha can be dominant only when alpha's weight has
no positive label at a zero label of mu, so each step tries only those
roots, and the steps out of mu, which do not depend on the highest
weight, are kept in the type's memo.  At a dominant weight mu the
recursion's sum over the positive roots runs over the orbits of the
stabilizer W_mu on the roots, taken up to sign: one alpha-string per
orbit, times the number of positive roots in it (Moody-Patera).  The
string sum is constant on each orbit and even under alpha -> -alpha when
alpha is orthogonal to mu, so the orbit sum is the full sum, exactly.
The orbit table is built in one pass from the highest root down by the
raising step of `rootsys`: a root that some s_i in W_mu raises has the
orbit of the higher root, and a root that none raises is W_mu-dominant
and heads its own orbit.  Each string is summed in closed form: the
pairing (mu + k alpha, alpha) = (mu, alpha) + k (alpha, alpha) is linear
in k, and each orbit keeps a covector for (mu, alpha) and the number
(alpha, alpha), both scaled by the orbit's size, so a string takes one
pairing whatever its length.  The multiplicity at a string point is read
at its dominant conjugate, which depends only on the root system, so the
type's memo keeps every conjugate the walks find.  That memo is one
object per root system, built by `_memo`: its characters, the
conjugates, the steps and orbit strings of each dominant weight, and the
tables of each set of zero labels.  Strings overlap heavily across the
characters of one type, and the memo pays off when several of them are
computed in one process: every `branch --verify` does that for its
subgroup's types, while `classify` computes no character.  Every
character is kept in one format, a map from dominant weight to
multiplicity.  Restriction to a subgroup gives the dominant character of
the restricted module, keyed by torus charge when the subgroup has a
central torus: it keeps the weights whose image is dominant.  A root
subgroup walks the Weyl orbit of each dominant weight inside its
dominant cone, carrying each point's image along
(`Embedding.weight_image`): a reflection moves the point by a multiple
of a root's weight and the image by the same multiple of that weight's
image, so no point is restricted by a matrix product, and the cone test
is a sign check on the image.  A folded subgroup has no such cone; one
enumeration at the highest weight, `WeightImage.ball`, visits the
points of its root-lattice coset in the ball of the W-invariant form Q
with a dominant image, which include every weight with one.  That character
answers both full decompositions (repeated peeling of the highest
remaining weight) and single multiplicities (alternating sum over the
subgroup Weyl group).  That sum visits only the w in W_H whose term can
be non-zero: the term at w reads the dominant conjugate of xi = target +
rho - w rho, which has the norm of xi under the W_H-invariant form Q of
`RootSystem.qnorm`, so it is zero once Q(xi) passes the largest Q of a
key of the charge; Q(xi) grows along the weak order by one product per
step, so the kept w are a weak-order ideal, walked layer by layer within
that budget.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from operator import add, mul, sub
from types import MappingProxyType, SimpleNamespace

from .rootsys import LieError, RootSystem, root_system


@lru_cache(maxsize=None)
def _memo(rs):
    """Everything the character layer keeps for one root system.

    ``chars``: {lam: read-only dominant character of V(lam)};
    ``conj``: {weight: its dominant conjugate}, filled by the string
    walks of `dominant_character`;
    ``down``: {dominant mu: (steps, strings)}, filled by
    `dominant_weights` when it first reaches mu: the dominant steps
    [(mu - alpha, alpha)] down from mu in positive-root order, and the
    strings of `_zero_label_tables` at mu's zero labels;
    ``tables``: {zero labels: `_zero_label_tables` there}.

    `root_system` returns one RootSystem per type, so every character
    of a type in the process shares its memo; ``_memo.cache_clear()``
    resets every type.
    """
    return SimpleNamespace(chars={}, conj={}, down={}, tables={})


def dominant_weights(rs, lam):
    """All dominant weights mu of the module with highest weight lam.

    These are exactly the dominant mu with lam - mu a nonnegative root
    sum; every such mu is reachable from lam by subtracting one positive
    root at a time while staying dominant, and the walk adds up those
    roots.  Returns {mu: simple-root coefficients of lam - mu}, highest
    mu first (ties in the order the walk finds them).  The steps down
    from mu depend on mu and the type only, so each dominant weight is
    expanded once per type, into the ``down`` entry of the type's memo
    (`_memo`), trying only the roots of `_zero_label_tables` that fit
    under mu's zero labels; the entry keeps that table's strings too.
    """
    lam = tuple(lam)
    rs.check_rank(lam)
    if not rs.is_dominant(lam):
        raise LieError(f"not a dominant weight: {lam}")
    memo = _memo(rs)
    down, tables = memo.down, memo.tables
    coeffs = {lam: (0,) * rs.rank}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            entry = down.get(mu)
            if entry is None:
                zeros = tuple(i for i, x in enumerate(mu) if not x)
                table = tables.get(zeros)
                if table is None:
                    table = tables[zeros] = _zero_label_tables(rs, zeros)
                steps = []
                for a, wa in table[0]:
                    nu = tuple(map(sub, mu, wa))
                    if min(nu) >= 0:
                        steps.append((nu, a))
                entry = down[mu] = (steps, table[1])
            c = coeffs[mu]
            for nu, a in entry[0]:
                if nu not in coeffs:
                    coeffs[nu] = tuple(map(add, c, a))
                    nxt.append(nu)
        frontier = nxt
    return {mu: coeffs[mu] for mu in sorted(coeffs, key=rs.height_key, reverse=True)}


def root_orbits(rs, zeros):
    """The W_mu-orbits of the positive roots, taken up to sign.

    W_mu is generated by the simple reflections s_i, i in ``zeros`` (the
    zero labels of a dominant mu).  Returns [(root, weight, count)]: the
    top of each orbit, its weight coordinates, and the number of
    positive roots in the orbit.  The top is the orbit's W_mu-dominant
    root, so mu + t alpha is nonnegative on the zero labels.  One pass
    from the highest root down: a root a with <a, alpha_i^vee> < 0 for
    some i in ``zeros`` has the top of the higher root s_i a, found
    earlier; otherwise a is W_mu-dominant and its own top.  This is
    exact: s_i a is again positive (a is not alpha_i), every W_mu-orbit
    of roots holds one W_mu-dominant root, and a root of the Levi of mu
    has -a in its orbit, so these are the orbits up to sign.  Each
    factor's roots are in height order in ``rs.positive_roots``, and
    s_i a stays in a's factor, so the reversed list is top-down.
    Read once per type and zero-label set, by `_zero_label_tables`,
    whose result the type's memo (`_memo`) keeps.
    """
    top = [0] * rs.n_pos
    for k in reversed(range(rs.n_pos)):
        a, wa = rs.positive_roots[k], rs.mirrors[k][1]
        i = next((i for i in zeros if wa[i] < 0), None)
        if i is None:
            top[k] = k
        else:
            top[k] = top[rs.index[a[:i] + (a[i] - wa[i],) + a[i + 1 :]]]
    return [
        (rs.positive_roots[k], rs.mirrors[k][1], c) for k, c in Counter(top).items()
    ]


def _zero_label_tables(rs, zeros):
    """What the Freudenthal walk reads at a dominant mu with zero labels
    ``zeros``.

    Returns (fitted, strings).  ``fitted`` is [(root, weight)] of the
    positive roots whose weight is nonpositive on ``zeros``, in
    positive-root order: mu - alpha can be dominant only for these.
    ``strings`` has one entry (weight, count * d alpha, count * (alpha,
    alpha)) per orbit of `root_orbits`, so that count * (mu, alpha) is
    one pairing of mu with the covector.  Built once per type and
    zero-label set, by `dominant_weights` into ``tables`` of the type's
    memo (`_memo`), so a type holds at most 2^rank of them.
    """
    fitted = [
        (a, wa)
        for a, (_, wa) in zip(rs.positive_roots, rs.mirrors)
        if all(wa[i] <= 0 for i in zeros)
    ]
    strings = [
        (wa, tuple(count * x for x in map(mul, rs.d, a)), count * rs.pair_wr(wa, a))
        for a, wa, count in root_orbits(rs, zeros)
    ]
    return fitted, strings


def dominant_character(t, lam):
    """{dominant weight: multiplicity} for the module with h.w. lam.

    Freudenthal's recursion, with the sum over the positive roots alpha
    of f(alpha) = sum_{k>=1} m(mu + k alpha) (mu + k alpha, alpha) taken
    over the orbits of `root_orbits`: f is constant on W_mu-orbits (W_mu
    fixes mu and the multiplicities), and f(-alpha) = f(alpha) for a
    root with (mu, alpha) = 0, since the whole alpha-string through mu
    sums to zero.  So the sum is exactly sum over orbits O of (positive
    roots in O) * f(any root of O), in integers.  The string is walked
    once, adding up m_k and k m_k; f is then (mu, alpha) sum m_k +
    (alpha, alpha) sum k m_k, the count and both pairings read from the
    orbit's covector in `_zero_label_tables`, so a non-empty string costs
    one pairing.  The orbits at mu are read from the ``down`` entry that
    `dominant_weights` left at mu in the type's memo (`_memo`).  Each m_k
    is read at the dominant conjugate of mu + k alpha, taken from the
    memo's ``conj`` or, on a miss, from `RootSystem.dominant_signed`
    and stored there; the memo is shared by every character of the type
    in the process.  The returned character is the memo's own, shared by
    every caller and read-only (a `MappingProxyType`).
    """
    rs = root_system(t)
    lam = tuple(lam)
    memo = _memo(rs)
    hit = memo.chars.get(lam)
    if hit is not None:
        return hit
    wts = list(dominant_weights(rs, lam).items())
    conj, down = memo.conj, memo.down
    # the denominator (lam + mu + 2 rho, lam - mu) is the dot product of
    # the root coefficients of lam - mu with d (lam + 2) + d mu
    d_lam2 = [d * (x + 2) for d, x in zip(rs.d, lam)]
    mult = {lam: 1}
    for mu, coeffs in wts[1:]:
        num = 0
        for wa, da, aa in down[mu][1]:
            m_sum = km_sum = k = 0
            nu = mu
            while True:
                nu = tuple(map(add, nu, wa))
                dom = conj.get(nu)
                if dom is None:
                    dom = conj[nu] = rs.dominant_signed(nu)[0]
                m_up = mult.get(dom)
                if m_up is None:
                    break
                k += 1
                m_sum += m_up
                km_sum += k * m_up
            if k:
                num += sum(map(mul, mu, da)) * m_sum + aa * km_sum
        denom = sum(map(mul, coeffs, map(add, d_lam2, map(mul, rs.d, mu))))
        q, r = divmod(2 * num, denom)
        if r or q <= 0:
            raise LieError(f"multiplicity recursion failed at {mu}")
        mult[mu] = q
    mult = memo.chars[lam] = MappingProxyType(mult)
    return mult


def module_dimension(t, lam):
    return root_system(t).weyl_dimension(lam)


def dominant_character_product(ps: RootSystem, lam):
    """Per-factor product of dominant characters, over joined weights."""
    ps.check_rank(lam)
    out = {(): 1}
    for f, part in zip(ps.factors, ps.split(lam)):
        factor = dominant_character(f, part)
        nxt = {}
        for head, m in out.items():
            for w, mw in factor.items():
                nxt[head + w] = m * mw
        out = nxt
    return out


def restrict_collapsed(emb, lam):
    """Restriction of the character of V(lam) to a catalog subgroup.

    Returns the dominant character of the restricted module,
    {(dominant subgroup weight, torus charge): multiplicity}, in the
    format of `dominant_character_product`; entries without a torus use
    charge 0.  Every weight of V(lam) whose image under
    `emb.weight_image` is dominant adds its multiplicity, read at its
    dominant conjugate.  Subsystem and Levi entries walk the W_G-orbit of
    each dominant weight inside the cone of `emb.simple_images` (their
    restriction rows are the coroots of those roots, so the cone holds
    exactly the points with a dominant image), carrying each point's
    image along.  The folded entries have no such cone: they take the
    weights from one enumeration at lam, `WeightImage.ball`, which visits
    every point of the ball of lam in its root-lattice coset with a
    dominant image, and a point whose conjugate is not a weight of
    V(lam) adds nothing.
    """
    image = emb.weight_image()  # an entry without generators raises LieError
    rs = root_system(emb.ambient)
    char = dominant_character(emb.ambient, lam)
    out: dict = {}
    cone = emb.simple_images
    if cone is None:
        for nu, x in image.ball(lam):
            m = char.get(rs.dominant_signed(x)[0])
            if m:
                key = (nu, 0)
                out[key] = out.get(key, 0) + m
        return out
    n = emb.rank_ss
    torus = emb.coweight is not None
    for mu, m in char.items():
        for img in rs.weyl_orbit(mu, image, cone):
            key = (img[:n], img[n] if torus else 0)
            out[key] = out.get(key, 0) + m
    return out


def decompose(emb, lam, collapsed=None):
    """Highest weights of the restricted module, with multiplicities.

    Returns {(subgroup highest weight, torus charge): multiplicity},
    found by repeatedly peeling the top remaining weight of the dominant
    character.  A non-positive peel or an oversubtracted weight means
    the given character is not a genuine one and raises LieError.  A
    peel never creates a key (a missing one is oversubtracted), so the
    keys are sorted once and peeled in that order, skipping those gone.
    """
    ps = emb.hsys
    left = dict(restrict_collapsed(emb, lam) if collapsed is None else collapsed)
    out: dict = {}
    order = sorted(
        left, key=lambda kq: (ps.height_key(kq[0]), kq[0], kq[1]), reverse=True
    )
    for nu, q in order:
        if (nu, q) not in left:
            continue
        c = left[(nu, q)]
        if c <= 0:
            raise LieError(
                f"restriction of {lam} is not a character: "
                f"peel at {nu} charge {q} gives {c}"
            )
        out[(nu, q)] = c
        for w, m in dominant_character_product(ps, nu).items():
            key = (w, q)
            rest = left.get(key, 0) - c * m
            if rest < 0:
                raise LieError(
                    f"restriction of {lam} is not a character: "
                    f"weight {w} charge {q} oversubtracted"
                )
            if rest == 0:
                left.pop(key, None)
            else:
                left[key] = rest
    return out


def multiplicity_of(emb, lam, target, charge=0, collapsed=None):
    """Multiplicity of one subgroup module in the restriction of V(lam).

    Alternating sum over w in W_H of sign(w) times the restricted
    multiplicity of xi = target + rho - w rho, read from the dominant
    character at the dominant conjugate of xi.  Only the w whose term
    can be non-zero are visited.  The conjugate has the norm of xi under
    the W_H-invariant form Q of `RootSystem.qnorm`, so the term vanishes
    once Q(xi) exceeds the largest Q of a key of this charge.  Q(xi) is
    Q(target) at w = 1, and a step x -> s_i x of the walk from rho
    (x = w rho, x_i > 0) adds x_i alpha_i to xi and x_i (target_i + 1)
    Q(alpha_i) to Q(xi): one positive cost per node, so the budget walk
    of `RootSystem.weyl_orbit_signed` visits exactly the order ideal of
    the weak order within max Q(key) - Q(target).  W_H is the Weyl group
    of the block-diagonal Cartan matrix of H, so the walk covers all
    factors at once.  Much cheaper than a full decomposition when only
    one entry is wanted.
    """
    ps = emb.hsys
    ps.check_rank(target)
    if not ps.is_dominant(target):
        raise LieError(f"target weight must be dominant: {target}")
    if collapsed is None:
        collapsed = restrict_collapsed(emb, lam)
    # no key of this charge: a negative budget, so no terms
    top = max((ps.qnorm(w) for w, q in collapsed if q == charge), default=-1)
    costs = [(t + 1) * n for t, n in zip(target, ps.simple_qnorms)]
    total = 0
    for w_rho, sign in ps.weyl_orbit_signed(ps.rho, top - ps.qnorm(target), costs):
        xi = tuple(t + 1 - w for t, w in zip(target, w_rho))
        dom, _ = ps.dominant_signed(xi)
        total += sign * collapsed.get((dom, charge), 0)
    return total
