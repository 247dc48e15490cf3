"""Exact characters and branching to catalog subgroups.

Weight multiplicities come from the Freudenthal recursion over the
dominant weights only (all arithmetic in plain integers, every division
checked).  Every character is kept in one format, a map from dominant
weight to multiplicity.  Restriction to a subgroup gives the dominant
character of the restricted module, keyed by torus charge when the
subgroup has a central torus: it walks the Weyl orbit of each dominant
weight (only the points in the subgroup's dominant cone when the
subgroup is a root subgroup, the full orbit for the folded subgroups)
and keeps the points whose image is dominant.  That
character answers both full decompositions (repeated peeling of the
highest remaining weight) and single multiplicities (alternating sum
over the subgroup Weyl group).  That sum visits only the w in W_H whose
term can be non-zero: the term at w reads the dominant conjugate of
target + rho - w rho, never lower than that weight, so it is zero once
the height of rho - w rho passes the top restricted height of the charge
minus the target's height; that height grows along the weak order, so
the kept w are a weak-order ideal, walked layer by layer.
"""

from __future__ import annotations

from .rootsys import LieError, ProductSystem, root_system

# beyond this module dimension the command line refuses to enumerate
# weight orbits unless explicitly allowed
HEAVY_DIM_LIMIT = 100_000

_DOM_CHAR_CACHE: dict = {}


def dominant_weights(rs, lam):
    """All dominant weights of the module with highest weight lam.

    These are exactly the dominant mu with lam - mu a nonnegative root
    sum; every such mu is reachable from lam by subtracting one positive
    root at a time while staying dominant.
    """
    lam = tuple(lam)
    if not rs.is_dominant(lam):
        raise LieError(f"not a dominant weight: {lam}")
    pos_w = [rs.weight_of_root(a) for a in rs.positive_roots]
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for wa in pos_w:
                nu = tuple(x - y for x, y in zip(mu, wa))
                if nu not in seen and all(c >= 0 for c in nu):
                    seen.add(nu)
                    nxt.append(nu)
        frontier = nxt
    return sorted(seen, key=rs.height_key, reverse=True)


def dominant_character(t, lam):
    """{dominant weight: multiplicity} for the module with h.w. lam."""
    rs = root_system(t)
    lam = tuple(lam)
    key = (str(rs.type), lam)
    hit = _DOM_CHAR_CACHE.get(key)
    if hit is not None:
        return hit
    wts = dominant_weights(rs, lam)
    pos_w = [rs.weight_of_root(a) for a in rs.positive_roots]
    mult = {lam: 1}
    for mu in wts[1:]:
        num = 0
        for a, wa in zip(rs.positive_roots, pos_w):
            t_step = 1
            while True:
                nu = tuple(x + t_step * y for x, y in zip(mu, wa))
                dnu, _ = rs.dominant_signed(nu)
                m_up = mult.get(dnu)
                if m_up is None:
                    break
                num += m_up * rs.pair_wr(nu, a)
                t_step += 1
        coeffs = rs.root_coefficients([x - y for x, y in zip(lam, mu)])
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


def dominant_character_product(ps: ProductSystem, lam):
    """Per-factor product of dominant characters, over joined weights."""
    out = {(): 1}
    for sys, part in zip(ps.systems, ps.split(lam)):
        factor = dominant_character(sys.type, part)
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
    walk stays inside the cone of `emb.simple_images` when the entry has
    them (subsystem and Levi entries, whose restriction rows are the
    coroots of those roots, so the cone holds exactly the points with a
    dominant image); the folded entries walk the full orbit.
    """
    emb.restriction_rows()  # an entry without generators raises LieError
    rs = root_system(emb.ambient)
    ps = emb.hsys
    out: dict = {}
    for mu, m in dominant_character(emb.ambient, lam).items():
        for nu in rs.weyl_orbit(mu, emb.simple_images or ()):
            ss, q = emb.restrict_weight(nu)
            if ps.is_dominant(ss):
                key = (ss, q or 0)
                out[key] = out.get(key, 0) + m
    return out


def decompose(emb, lam, collapsed=None):
    """Highest weights of the restricted module, with multiplicities.

    Returns {(subgroup highest weight, torus charge): multiplicity},
    found by repeatedly peeling the top remaining weight of the dominant
    character.  A non-positive peel or an oversubtracted weight means
    the given character is not a genuine one and raises LieError.
    """
    ps = emb.hsys
    left = dict(restrict_collapsed(emb, lam) if collapsed is None else collapsed)
    out: dict = {}
    while left:
        nu, q = max(left, key=lambda kq: (ps.height_key(kq[0]), kq[0], kq[1]))
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
    height among the keys of this charge minus height_key(target), and
    `ProductSystem.weyl_orbit_signed` walks only the order ideal of the
    weak order below that bound.  Much cheaper than a full
    decomposition when only one entry is wanted.
    """
    ps = emb.hsys
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
