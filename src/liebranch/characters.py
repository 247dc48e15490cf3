"""Exact characters and branching to catalog subgroups.

Weight multiplicities come from the Freudenthal recursion over the
dominant weights only (all arithmetic in plain integers, every division
checked).  At a dominant weight mu its sum over the positive roots runs
over the orbits of the stabilizer W_mu on the roots, taken up to sign:
one alpha-string per orbit, times the number of positive roots in it
(Moody-Patera).  The string sum is constant on each orbit and even under
alpha -> -alpha when alpha is orthogonal to mu, so the orbit sum is the
full sum, exactly.  The orbit table is built in one pass from the
highest root down by the raising step of `rootsys`: a root that some s_i
in W_mu raises has the orbit of the higher root, and a root that none
raises is W_mu-dominant and heads its own orbit.  Each string is summed
in closed form: the pairing (mu + k alpha, alpha) =
(mu, alpha) + k (alpha, alpha) is linear in k, so a string takes two
pairings whatever its length.  The multiplicity at a string point is
read at its dominant conjugate, which depends only on the root system,
so one memo per type keeps every conjugate the walks find.  Strings
overlap heavily across the characters of one type, and the memo pays off
when several of them are computed in one process: every `branch
--verify` does that for its subgroup's types, while `classify` computes
no character.  Every character is kept in one format, a map from
dominant weight to multiplicity.  Restriction to a subgroup gives the
dominant character of the restricted module, keyed by torus charge when
the subgroup has a central torus: it walks the Weyl orbit of each
dominant weight (only the points in the subgroup's dominant cone when
the subgroup is a root subgroup, the full orbit for the folded
subgroups) and keeps the points whose image is dominant.  The walk
carries each point's image along (`Embedding.weight_image`): a
reflection moves the point by a multiple of a root's weight and the
image by the same multiple of that weight's image, so no point is
restricted by a matrix product, and on a root subgroup the cone test is
a sign check on the image.  That character answers both full
decompositions (repeated peeling of the highest remaining weight) and
single multiplicities (alternating sum over the subgroup Weyl group).
That sum visits only the w in W_H whose term can be non-zero: the term
at w reads the dominant conjugate of target + rho - w rho, never lower
than that weight, so it is zero once the height of rho - w rho passes
the top restricted height of the charge minus the target's height; that
height grows along the weak order, so the kept w are a weak-order ideal,
walked layer by layer.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from operator import add, sub

from .rootsys import LieError, RootSystem, root_system

_DOM_CHAR_CACHE: dict = {}
# per type: {weight: its dominant conjugate}, filled by the string walks
_CONJUGATE_CACHE: dict = {}


def dominant_weights(rs, lam):
    """All dominant weights mu of the module with highest weight lam.

    These are exactly the dominant mu with lam - mu a nonnegative root
    sum; every such mu is reachable from lam by subtracting one positive
    root at a time while staying dominant, and the walk adds up those
    roots.  Returns {mu: simple-root coefficients of lam - mu}, highest
    mu first.
    """
    lam = tuple(lam)
    rs.check_rank(lam)
    if not rs.is_dominant(lam):
        raise LieError(f"not a dominant weight: {lam}")
    steps = [(a, wa) for a, (_, wa) in zip(rs.positive_roots, rs.mirrors)]
    coeffs = {lam: (0,) * rs.rank}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for a, wa in steps:
                nu = tuple(map(sub, mu, wa))
                if min(nu) >= 0 and nu not in coeffs:
                    coeffs[nu] = tuple(map(add, coeffs[mu], a))
                    nxt.append(nu)
        frontier = nxt
    return {mu: coeffs[mu] for mu in sorted(coeffs, key=rs.height_key, reverse=True)}


@lru_cache(maxsize=None)
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
    Cached per (root system, zeros), so a type holds at most 2^rank
    tables.
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
    (alpha, alpha) sum k m_k.  Each m_k is read at the dominant conjugate
    of mu + k alpha, taken from the type's memo (`_CONJUGATE_CACHE`) or,
    on a miss, from `RootSystem.dominant_signed` and stored there; the
    memo is shared by every character of the type in the process.
    """
    rs = root_system(t)
    lam = tuple(lam)
    key = (str(rs.type), lam)
    hit = _DOM_CHAR_CACHE.get(key)
    if hit is not None:
        return hit
    wts = list(dominant_weights(rs, lam).items())
    conj = _CONJUGATE_CACHE.setdefault(key[0], {})
    mult = {lam: 1}
    for mu, coeffs in wts[1:]:
        num = 0
        zeros = tuple(i for i, x in enumerate(mu) if not x)
        for a, wa, count in root_orbits(rs, zeros):
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
                num += count * (
                    rs.pair_wr(mu, a) * m_sum + rs.pair_wr(wa, a) * km_sum
                )
        shifted = [x + y + 2 for x, y in zip(lam, mu)]
        denom = sum(c * d * s for c, d, s in zip(coeffs, rs.d, shifted))
        q, r = divmod(2 * num, denom)
        if r or q <= 0:
            raise LieError(f"multiplicity recursion failed at {mu}")
        mult[mu] = q
    _DOM_CHAR_CACHE[key] = mult
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
    charge 0.  Every W_G-orbit point that restricts to a dominant
    subgroup weight adds the multiplicity of its dominant weight.  The
    walk carries each point's image under `emb.weight_image` along, so
    the restriction is never applied point by point.  It stays inside
    the cone of `emb.simple_images` when the entry has them (subsystem
    and Levi entries, whose restriction rows are the coroots of those
    roots, so the cone holds exactly the points with a dominant image);
    the folded entries walk the full orbit.
    """
    image = emb.weight_image()  # an entry without generators raises LieError
    rs = root_system(emb.ambient)
    cone = emb.simple_images or ()
    n = emb.rank_ss
    torus = emb.coweight is not None
    out: dict = {}
    for mu, m in dominant_character(emb.ambient, lam).items():
        for img in rs.weyl_orbit(mu, image, cone):
            ss = img[:n]
            if min(ss) >= 0:
                key = (ss, img[n] if torus else 0)
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
    can be non-zero are visited: that conjugate is never lower than xi,
    so the term vanishes once height_key(rho - w rho) exceeds the top
    height among the keys of this charge minus height_key(target).  W_H
    is the Weyl group of the block-diagonal Cartan matrix of H, so
    `RootSystem.weyl_orbit_signed` walks the orbit of rho in one
    layered walk over all factors at once, and only the order ideal of
    the weak order below that bound.  Much cheaper than a full
    decomposition when only one entry is wanted.
    """
    ps = emb.hsys
    ps.check_rank(target)
    if not ps.is_dominant(target):
        raise LieError(f"target weight must be dominant: {target}")
    if collapsed is None:
        collapsed = restrict_collapsed(emb, lam)
    # no key of this charge: a negative bound, so no terms
    top = max((ps.height_key(w) for w, q in collapsed if q == charge), default=-1)
    total = 0
    for w_rho, sign in ps.weyl_orbit_signed(ps.rho, top - ps.height_key(target)):
        xi = tuple(t + 1 - w for t, w in zip(target, w_rho))
        dom, _ = ps.dominant_signed(xi)
        total += sign * collapsed.get((dom, charge), 0)
    return total
