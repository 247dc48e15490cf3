"""Exact characters and branching to catalog subgroups.

Weight multiplicities come from the Freudenthal recursion over the
dominant weights only (all arithmetic in plain integers, every division
checked).  Restriction to a subgroup maps the Weyl orbit of each
dominant weight through the weight-restriction map and collapses the
image onto the dominant chamber of the subgroup, keyed by torus charge
when the subgroup has a central torus.  For equal-rank subgroups only
the orbit points in the subgroup's dominant cone are walked; the
folded and derived subgroups stream the full orbit.  The collapsed
form answers both full decompositions (repeated peeling of the highest
remaining weight) and single multiplicities (alternating sum over the
subgroup Weyl group).
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
    rs = root_system(t) if not hasattr(t, "positive_roots") else t
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
    rs = root_system(t) if not hasattr(t, "positive_roots") else t
    return rs.weyl_dimension(lam)


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
    """Restriction of the full character of V(lam) to a catalog subgroup.

    Returns {(dominant subgroup weight, torus charge): orbit mass} where
    the mass of a class is the total multiplicity over its Weyl orbit.
    Entries without a torus use charge 0.

    For an equal-rank entry (restriction rows plus torus coweight as
    many as the rank of G) the restriction is injective, so each
    subgroup Weyl orbit in W_G.mu has exactly one point in the dominant
    cone of the subgroup; only those points are walked, each carrying
    the subgroup orbit size of its weight.  Other entries stream the
    full orbit and fold each image into the dominant chamber.
    """
    rs = root_system(emb.ambient)
    rows = [tuple(r) for r in emb.restriction_rows()]
    cw = tuple(emb.coweight) if emb.coweight is not None else None
    ps = ProductSystem(emb.spec)
    equal_rank = len(rows) + (cw is not None) == rs.rank
    cone = (emb.simple_images or ()) if equal_rank else ()
    out: dict = {}
    for mu, m in dominant_character(emb.ambient, lam).items():
        for nu in rs.weyl_orbit(mu, cone):
            ss = tuple(sum(r[k] * nu[k] for k in range(len(nu))) for r in rows)
            if cone:
                dom, mass = ss, m * ps.orbit_size(ss)
            else:
                (dom, _), mass = ps.dominant_signed(ss), m
            q = sum(c * x for c, x in zip(cw, nu)) if cw else 0
            key = (dom, q)
            out[key] = out.get(key, 0) + mass
    return out


def decompose(emb, lam, collapsed=None):
    """Highest weights of the restricted module, with multiplicities.

    Returns {(subgroup highest weight, torus charge): multiplicity},
    found by repeatedly peeling the top remaining weight class.  A
    non-integral or negative peel means the collapsed data is not a
    genuine character and raises LieError.
    """
    ps = ProductSystem(emb.spec)
    left = dict(restrict_collapsed(emb, lam) if collapsed is None else collapsed)
    out: dict = {}
    while left:
        nu, q = max(left, key=lambda kq: (ps.height_key(kq[0]), kq[0], kq[1]))
        c, r = divmod(left[(nu, q)], ps.orbit_size(nu))
        if r or c <= 0:
            raise LieError(
                f"restriction of {lam} is not a character: "
                f"peel at {nu} charge {q} gives {c} rem {r}"
            )
        out[(nu, q)] = c
        for w, m in dominant_character_product(ps, nu).items():
            key = (w, q)
            rest = left.get(key, 0) - c * m * ps.orbit_size(w)
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

    Alternating sum of restricted weight multiplicities over the
    subgroup Weyl orbit of the shifted target; much cheaper than a full
    decomposition when only one entry is wanted.
    """
    ps = ProductSystem(emb.spec)
    if not ps.is_dominant(target):
        raise LieError(f"target weight must be dominant: {target}")
    if collapsed is None:
        collapsed = restrict_collapsed(emb, lam)
    rho = ps.rho
    total = 0
    for w_rho, sign in ps.weyl_orbit_signed(rho):
        xi = tuple(t + 1 - w for t, w in zip(target, w_rho))
        dom, _ = ps.dominant_signed(xi)
        mass = collapsed.get((dom, charge))
        if not mass:
            continue
        m_res, r = divmod(mass, ps.orbit_size(dom))
        assert r == 0, "orbit mass must be divisible by the orbit size"
        total += sign * m_res
    return total


def is_multiplicity_free(emb, lam, collapsed=None):
    return all(c == 1 for c in decompose(emb, lam, collapsed=collapsed).values())
