"""Root-system combinatorics for the finite simple Lie types and their
products.

Roots are integer coefficient tuples over the simple roots (Bourbaki
numbering); weights are integer tuples over the fundamental weights.
The invariant form is scaled so short roots have squared length 2, and
``d[i]`` is half the squared length of simple root i.  With that scaling
``(lam, alpha) = sum_j d[j]*lam[j]*a[j]`` is an integer whenever ``lam``
is in weight coordinates and ``alpha = sum_j a[j]*alpha_j``.

The Cartan matrix convention is ``C[i][j] = <alpha_j, alpha_i^vee>``, so
the weight coordinates of a root ``a`` are ``C @ a`` and the simple
reflection ``s_i`` acts on weight coordinates by
``mu |-> mu - mu[i] * column_i(C)``.

A product of simple types (a subgroup such as A5xA1 or D5xT1, torus
charges aside) is the root system of the block-diagonal Cartan matrix,
and one class, ``RootSystem``, serves both: a simple type is the product
with one factor.  The roots of each simple type are generated once, from
its Cartan matrix, as the closure of the simple roots under the raising
step s_i a = a - <a, alpha_i^vee> alpha_i taken when <a, alpha_i^vee> < 0,
and a product pads its factors' roots with zeros.
-w0 is derived from the Weyl group: omega_{i*} is the dominant conjugate
of -omega_i.

The orbit walks can carry a linear image of each point along
(``WeightImage``), so that restriction to a subgroup never applies its
matrix point by point.  Where the points with a dominant image are no
cone of the orbit, ``WeightImage.ball`` enumerates them without a walk:
the lattice points of a root-lattice coset in the ball of the
W-invariant form ``qnorm`` whose image is dominant, level by level in
coordinates that make the image triangular (Fincke-Pohst), in integers
only.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul


class LieError(ValueError):
    """Bad input: unknown type, malformed weight or rank out of range."""


_EXCEPTIONAL_WEYL_ORDER = {
    "G2": 12,
    "F4": 1152,
    "E6": 51840,
    "E7": 2903040,
    "E8": 696729600,
}


@dataclass(frozen=True, order=True)
class SimpleType:
    family: str
    rank: int

    def __post_init__(self):
        fam, n = self.family, self.rank
        ok = (
            (fam == "A" and n >= 1)
            or (fam in ("B", "C") and n >= 2)
            or (fam == "D" and n >= 3)
            or (fam == "E" and n in (6, 7, 8))
            or (fam == "F" and n == 4)
            or (fam == "G" and n == 2)
        )
        if not ok:
            raise LieError(f"no simple type {fam}{n}")

    def __str__(self):
        return f"{self.family}{self.rank}"


def cartan_data(t: SimpleType):
    """Cartan matrix and length vector d of a simple type.

    Returns (C, d) with C[i][j] = <alpha_j, alpha_i^vee> and d[i] half the
    squared length of alpha_i (1 for short roots).
    """
    n = t.rank
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i, j, cij=-1, cji=-1):
        C[i][j] = cij
        C[j][i] = cji

    fam = t.family
    if fam in ("A", "B", "C"):
        for i in range(n - 1):
            edge(i, i + 1)
        if fam == "B" and n >= 2:
            edge(n - 2, n - 1, -1, -2)
        if fam == "C" and n >= 2:
            edge(n - 2, n - 1, -2, -1)
    elif fam == "D":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 3, n - 1)
    elif fam == "E":
        # chain 1-3-4-5-6(-7)(-8) with node 2 hanging off node 4
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for a, b in zip(chain, chain[1:]):
            edge(a, b)
        edge(1, 3)
    elif fam == "F":
        edge(0, 1)
        edge(1, 2, -1, -2)
        edge(2, 3)
    elif fam == "G":
        edge(0, 1, -3, -1)

    if fam == "B":
        d = [2] * (n - 1) + [1]
    elif fam == "C":
        d = [1] * (n - 1) + [2]
    elif fam == "F":
        d = [2, 2, 1, 1]
    elif fam == "G":
        d = [1, 3]
    else:
        d = [1] * n
    # symmetrizability sanity: d_i C_ij = d_j C_ji
    for i in range(n):
        for j in range(n):
            if d[i] * C[i][j] != d[j] * C[j][i]:
                raise LieError(f"{t}: d = {d} does not symmetrize C at {i}, {j}")
    return C, d


def diagram_components(C, nodes=None):
    """Connected components of the Dynkin diagram induced on ``nodes``."""
    if nodes is None:
        nodes = range(len(C))
    nodes = list(nodes)
    seen = set()
    comps = []
    for start in nodes:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in nodes:
                if j not in seen and C[i][j] != 0:
                    seen.add(j)
                    comp.append(j)
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def match_cartan(M):
    """Simple type of a Cartan matrix given in any node order.

    Returns (t, order) with ``M[order[i]][order[j]] == C[i][j]`` for the
    matrix C of ``cartan_data(t)``, and raises LieError when M is the
    Cartan matrix of no simple type.  The types of rank len(M) are tried
    in the order A, B, C, D, E, F, G, so the diagrams that two types
    share are labelled B2 (not C2) and A3 (not D3).
    """
    n = len(M)
    for family in "ABCDEFG":
        try:
            t = SimpleType(family, n)
        except LieError:
            continue
        C, _ = cartan_data(t)
        order = []

        def place(k):
            if k == n:
                return True
            for cand in range(n):
                if cand in order or M[cand][cand] != 2:
                    continue
                if all(
                    M[order[m]][cand] == C[m][k] and M[cand][order[m]] == C[k][m]
                    for m in range(k)
                ):
                    order.append(cand)
                    if place(k + 1):
                        return True
                    order.pop()
            return False

        if place(0):
            return t, order
    raise LieError(f"no simple type has the Cartan matrix {M}")


def _weyl_order(t: SimpleType):
    """Order of the Weyl group of a simple type."""
    fam, n = t.family, t.rank
    if fam == "A":
        return math.factorial(n + 1)
    if fam in ("B", "C"):
        return (1 << n) * math.factorial(n)
    if fam == "D":
        return (1 << (n - 1)) * math.factorial(n)
    return _EXCEPTIONAL_WEYL_ORDER[str(t)]


def _coroot(d, a, wa):
    """alpha^vee over the simple coroots, for the root with coefficients a
    and weight coordinates wa; (alpha, alpha) is read off wa."""
    da, odd = divmod(sum(map(mul, map(mul, d, a), wa)), 2)
    if odd:
        raise LieError(f"odd squared length for {a}")
    out = []
    for dj, aj in zip(d, a):
        num = dj * aj
        if num % da:
            raise LieError(f"non-integral coroot for {a}")
        out.append(num // da)
    return tuple(out)


def neg(a):
    """The negative of a root or weight."""
    return tuple(-x for x in a)


def _weight(C, a):
    """Weight coordinates C @ a of the root with coefficients a."""
    return tuple(sum(map(mul, row, a)) for row in C)


def generate_positive_roots(C):
    """The positive roots of the Cartan matrix C in root coordinates,
    sorted by height and then by coefficients.

    The closure of the simple roots under the raising step
    s_i a = a - <a, alpha_i^vee> alpha_i, taken when <a, alpha_i^vee> < 0.
    This is exact: for a positive root a other than alpha_i, s_i a is
    again a positive root, so every step stays in the set; and every
    positive root b that is not simple has <b, alpha_i^vee> > 0 for some
    i, so b = s_i (s_i b) is one raising step above the lower positive
    root s_i b, and by induction on height every positive root is
    reached (Humphreys, section 10.2).  C may be block-diagonal.
    """
    r = len(C)
    found = {tuple(int(j == i) for j in range(r)) for i in range(r)}
    layer = list(found)
    while layer:
        nxt = []
        for a in layer:
            for i, x in enumerate(_weight(C, a)):
                if x < 0:
                    b = a[:i] + (a[i] - x,) + a[i + 1 :]
                    if b not in found:
                        found.add(b)
                        nxt.append(b)
        layer = nxt
    return sorted(found, key=lambda a: (sum(a), a))


@lru_cache(maxsize=None)
def _simple_data(t: SimpleType):
    """(C, d, positive roots, mirrors, 2 rho^vee covector) of a simple
    type, generated once per type; `RootSystem` copies them."""
    C, d = cartan_data(t)
    roots = generate_positive_roots(C)
    mirrors = []
    for a in roots:
        wa = _weight(C, a)
        mirrors.append((_coroot(d, a, wa), wa))
    # <omega_j, 2 rho^vee> for height keys: 2 rho^vee is the sum of the
    # positive coroots
    covector = [sum(col) for col in zip(*(c for c, _ in mirrors))]
    return C, d, roots, mirrors, covector


class RootSystem:
    """The root and weight combinatorics of a simple type or of a product
    of simple types.

    ``RootSystem(t)`` takes a `SimpleType` or a `TypeSpec`.  A product is
    the root system of its block-diagonal Cartan matrix: weights are
    integer tuples over the concatenated fundamental weights of the
    factors (``slices`` gives each factor's block), and each factor's
    roots, coroots and weights are its type's, padded with zeros.  A
    simple type is the product with one factor.  Central torus charges
    are tracked by the callers (they are an embedding-level notion).
    """

    def __init__(self, t):
        self.type = t
        self.factors = (t,) if isinstance(t, SimpleType) else t.factors
        self.rank = n = sum(f.rank for f in self.factors)
        self.C = [[0] * n for _ in range(n)]
        self.d = []
        self.slices = []
        # (coroot, weight) of every positive root, in the order of
        # positive_roots: the reflections s_a
        self.positive_roots, self.mirrors, self._two_rho_covector = [], [], []
        for f in self.factors:
            C, d, roots, mirrors, covector = _simple_data(f)
            sl = slice(len(self.d), len(self.d) + f.rank)
            self.slices.append(sl)
            for i, row in enumerate(C):
                self.C[sl.start + i][sl] = row
            self.d += d
            left, right = (0,) * sl.start, (0,) * (n - sl.stop)
            self.positive_roots += [left + a + right for a in roots]
            self.mirrors += [(left + c + right, left + w + right) for c, w in mirrors]
            self._two_rho_covector += covector
        # the nonzero entries (j, C[j][i]) of each column i of C: the
        # coordinates a simple reflection s_i changes
        self._columns = [
            [(j, row[i]) for j, row in enumerate(self.C) if row[i]] for i in range(n)
        ]
        self.index = {a: k for k, a in enumerate(self.positive_roots)}
        self.n_pos = len(self.positive_roots)
        self.rho = (1,) * n

    @property
    def highest_root(self):
        """The highest root of a simple type: the last positive root."""
        return self.positive_roots[-1]

    def split(self, mu):
        """mu cut into the factors' blocks."""
        return [tuple(mu[sl]) for sl in self.slices]

    # -- root arithmetic ------------------------------------------------

    def is_root(self, a):
        return a in self.index or neg(a) in self.index

    def weight_of_root(self, a):
        return _weight(self.C, a)

    def inner_rr(self, a, b):
        """Invariant form of two roots given in root coordinates."""
        return sum(map(mul, map(mul, self.d, a), self.weight_of_root(b)))

    def norm2(self, a):
        return self.inner_rr(a, a)

    def pair_wr(self, lam, a):
        """Invariant form (lam, alpha), lam in weight and alpha in root coords."""
        return sum(map(mul, map(mul, self.d, lam), a))

    def coroot(self, a):
        """alpha^vee expanded over the simple coroots H_j (integer tuple)."""
        return _coroot(self.d, a, self.weight_of_root(a))

    # -- Weyl group action on weights ------------------------------------

    def check_rank(self, mu):
        if len(mu) != self.rank:
            raise LieError(
                f"weight {tuple(mu)} has {len(mu)} coordinates, "
                f"but {self.type} has rank {self.rank}"
            )

    def is_dominant(self, mu):
        return all(x >= 0 for x in mu)

    def dominant_signed(self, mu):
        """Dominant representative of the orbit of mu and the sign (-1)^length."""
        mu = list(mu)
        sign = 1
        cols = self._columns
        while True:
            for i, mi in enumerate(mu):
                if mi < 0:
                    for j, c in cols[i]:
                        mu[j] -= mi * c
                    sign = -sign
                    break
            else:
                return tuple(mu), sign

    def weyl_orbit(self, lam, image, cone):
        """Yield the image A x of each point x of the orbit of a dominant
        weight once, for ``image`` a `WeightImage` A of this system,
        keeping only the points x with <x, beta^vee> >= 0 for every beta
        in ``cone``, a list of linearly independent roots (root
        coordinates).  A is applied to the first point only, and the
        image is carried along the walk.

        The first such point is reached by reflecting lam in cone roots
        it pairs negatively with (each step raises a linear functional
        positive on the cone roots).  The cone is a union of closed
        chambers cut out by root hyperplanes, and its chambers are
        gallery-connected, so walking by root reflections that stay
        inside it reaches every point at a cost proportional to the
        points yielded.

        The first len(cone) rows of A must be the coroots of the cone
        roots: the cone walk reads its wall pairings off the image.  The
        step x -> s_a x = x - <x, a^vee> w_a moves A x by -<x, a^vee> times
        A w_a, so a neighbour's walls are a sign check on its image, made
        before its point is built, and `coroot_pairings` gives every
        <x, a^vee> with one addition each.
        """
        self.check_rank(lam)
        if not self.is_dominant(lam):
            raise LieError("weyl_orbit wants a dominant weight")
        n = len(cone)
        walls = [(cv, self.weight_of_root(b)) for cv, b in zip(image.rows, cone)]

        def inside(x):
            return all(sum(map(mul, cv, x)) >= 0 for cv, _ in walls)

        x = tuple(lam)
        while not inside(x):
            for cv, wb in walls:
                p = sum(map(mul, cv, x))
                if p < 0:
                    x = tuple(v - p * w for v, w in zip(x, wb))
        weights = self.coroot_chain[2]
        shifts = image.shifts
        seen = {x}
        stack = [(x, image(x))]
        while stack:
            x, img = stack.pop()
            yield img
            here = img[:n]
            for p, wa, sa in zip(self.coroot_pairings(x), weights, shifts):
                # zip(here, sa) pairs the walls alone
                if p and all(v >= p * s for v, s in zip(here, sa)):
                    y = tuple(v - p * w for v, w in zip(x, wa))
                    if y not in seen:
                        seen.add(y)
                        stack.append((y, tuple(v - p * s for v, s in zip(img, sa))))

    def weyl_orbit_signed(self, mu, budget, costs):
        """Yield (x, sign) over the orbit points x of a dominant weight mu
        whose cost is at most ``budget``.

        The cost of x is sum_i costs[i] times the coefficient of alpha_i
        in mu - x.  A step x -> s_i x with x[i] > 0 adds x[i] * alpha_i
        to mu - x, so it costs x[i] * costs[i]; with positive costs the
        cost grows along every step, the kept points are an order ideal
        of the weak order, and a step past the budget is not taken.  The
        walk goes layer by layer, layer k holding the kept points at
        distance k from mu, each once, with the budget left at each; the
        sign is (-1)^k.  A negative budget keeps nothing.
        """
        self.check_rank(mu)
        if not self.is_dominant(mu):
            raise LieError("weyl_orbit_signed wants a dominant weight")
        cols = self._columns
        layer = {tuple(mu): budget} if budget >= 0 else {}
        sign = 1
        while layer:
            for x in layer:
                yield x, sign
            sign = -sign
            nxt = {}
            for w, v in layer.items():  # v: the budget left at w
                for i, wi in enumerate(w):
                    if wi > 0:
                        left = v - wi * costs[i]
                        if left >= 0:
                            y = list(w)  # s_i w
                            for j, c in cols[i]:
                                y[j] -= wi * c
                            y = tuple(y)
                            if y not in nxt:
                                nxt[y] = left
            layer = nxt

    @cached_property
    def coroot_chain(self):
        """(order, steps, weights): the order of `coroot_pairings`.

        ``order`` lists the indices of the positive roots by the height
        of their coroots, the simple roots first and in node order;
        ``weights`` holds their weights in that order.  Every positive
        coroot that is not simple is a lower positive coroot plus a
        simple one, and ``steps`` gives (b, j) for each such position:
        a^vee = (coroot at position b) + alpha_j^vee.  Root height is not
        that order: in G2 the long root 3a1 + a2 has the coroot
        alpha_1^vee + alpha_2^vee, below the coroot of the short a1 + a2.
        Built on first use.
        """
        coroots = [c for c, _ in self.mirrors]
        order = sorted(
            range(self.n_pos),
            key=lambda k: (sum(coroots[k]), [-c for c in coroots[k]]),
        )
        at = {coroots[k]: pos for pos, k in enumerate(order)}
        steps = []
        for k in order[self.rank :]:
            c = coroots[k]
            for j, cj in enumerate(c):
                b = at.get(c[:j] + (cj - 1,) + c[j + 1 :]) if cj else None
                if b is not None:
                    steps.append((b, j))
                    break
            else:
                raise AssertionError(f"no lower coroot below {c}")
        return order, steps, [self.mirrors[k][1] for k in order]

    def coroot_pairings(self, x):
        """<x, a^vee> for every positive root a, in the order of
        `coroot_chain`: the first rank of them are x itself, and each
        later one is one sum."""
        p = list(x)
        for b, j in self.coroot_chain[1]:
            p.append(p[b] + x[j])
        return p

    def qnorm(self, x):
        """Q(x) = sum over the positive roots a of <x, a^vee>^2.

        A W-invariant positive-definite quadratic form, integer on
        weights, read off `coroot_pairings` (no Cartan inverse).  On a
        product it weights the factors differently from the Killing
        form; it is invariant all the same."""
        return sum(p * p for p in self.coroot_pairings(x))

    @cached_property
    def simple_qnorms(self):
        """Q(alpha_i) for every node i, from the columns of the Cartan
        matrix (the weights of the simple roots).  Built on first use."""
        return [self.qnorm([row[i] for row in self.C]) for i in range(self.rank)]

    def weyl_order(self):
        return math.prod(map(_weyl_order, self.factors))

    def stabilizer_order(self, lam):
        zero = [i for i in range(self.rank) if lam[i] == 0]
        return math.prod(
            _weyl_order(match_cartan([[self.C[i][j] for j in comp] for i in comp])[0])
            for comp in diagram_components(self.C, zero)
        )

    def orbit_size(self, lam):
        dom, _ = self.dominant_signed(lam)
        return self.weyl_order() // self.stabilizer_order(dom)

    # -- weights ---------------------------------------------------------

    @cached_property
    def dual_perm(self):
        """-w0 as a permutation of the 0-based nodes: -w0 omega_i is the
        dominant conjugate of -omega_i, the fundamental weight omega_{i*}.
        Built on first use."""
        perm = []
        for i in range(self.rank):
            dom, _ = self.dominant_signed(tuple(-int(j == i) for j in range(self.rank)))
            perm.append(dom.index(1))
        return perm

    def dual_node(self, i):
        """-w0 as an involution of 1-based node labels."""
        return self.dual_perm[i - 1] + 1

    def weyl_dimension(self, lam):
        self.check_rank(lam)
        if not self.is_dominant(lam):
            raise LieError("weyl_dimension wants a dominant weight")
        num = 1
        den = 1
        lr = [lam[j] + 1 for j in range(self.rank)]
        for a in self.positive_roots:
            num *= self.pair_wr(lr, a)
            den *= self.pair_wr(self.rho, a)
        q, r = divmod(num, den)
        if r:
            raise LieError(f"non-integral Weyl dimension {num}/{den} for {lam}")
        return q

    def height_key(self, mu):
        """<mu, 2 rho^vee>: a linear functional positive on positive roots."""
        return sum(c * x for c, x in zip(self._two_rho_covector, mu))


def root_system(t) -> RootSystem:
    """The cached RootSystem of a SimpleType or a TypeSpec: one per type.
    A spec of one simple factor and no torus is that factor, so
    ``root_system(TypeSpec.parse("B4")) is root_system(SimpleType("B", 4))``."""
    if isinstance(t, TypeSpec) and len(t.factors) == 1 and not t.torus:
        t = t.factors[0]
    return _root_system(t)


_root_system = lru_cache(maxsize=None)(RootSystem)


class WeightImage:
    """A linear map A on the weights of a root system, given by integer
    rows, with A applied to the weight of every positive root.

    A reflection s_a moves a point x by -<x, a^vee> times the weight of
    a, so it moves A x by the same multiple of that root's ``shift``:
    the orbit walks of `RootSystem` carry A x along this way instead of
    applying A at every point.  The shifts are in the order of
    `RootSystem.coroot_chain`, so the first rank of them are A applied
    to the columns of the Cartan matrix.  They are tabled on the first
    walk, so a reader of the rows alone does not pay for them.

    `ball` enumerates the points of a root-lattice coset, in a ball of
    the W-invariant form, whose image is dominant, with no orbit walk;
    its `frame` is likewise built on the first call.
    """

    def __init__(self, rs: RootSystem, rows):
        self.rs = rs
        self.rows = [tuple(r) for r in rows]

    @cached_property
    def shifts(self):
        weights = self.rs.coroot_chain[2]
        return [tuple(sum(map(mul, r, wa)) for r in self.rows) for wa in weights]

    def __call__(self, x):
        return tuple(sum(map(mul, r, x)) for r in self.rows)

    @cached_property
    def frame(self):
        """The integer data of `ball`, built on its first call.

        Points are x = lam - M z with z integer, M = C U for a unimodular
        U that puts B = A C in lower-triangular form [H | 0] by column
        operations (H with a positive diagonal; the rows of A must be
        independent).  So (A x)_i = (A lam)_i - sum_{j<=i} H_ij z_j reads
        only z_0..z_i, and the last n - r coordinates span the kernel.

        Q(lam - M z) is a quadratic in z whose minimum, 0, is at x = 0.
        Bareiss elimination of its Gram matrix, the last coordinate
        first, writes it as sum_l E_l^2 / (p_l p'_l): E_l is an integer
        form in z_0..z_l and lam, p_l the pivot of coordinate l and p'_l
        the pivot before it (1 for the first).  Over the reals the later
        coordinates can zero their terms, so a prefix z_0..z_l extends
        to a point of the ball exactly when its terms fit: an exact
        bound per level.  One scale S, the lcm of the p_l p'_l, makes
        every weight S / (p_l p'_l) an integer.

        Returns (scale, levels, H, M): levels[l] = (p_l, coefficients of
        z_0..z_{l-1} in E_l, coefficients of lam in E_l, weight).
        """
        rs, n, r = self.rs, self.rs.rank, len(self.rows)
        simple = [[row[j] for row in rs.C] for j in range(n)]
        bc = [list(self(w)) for w in simple]  # the columns of B
        uc = [[int(i == j) for i in range(n)] for j in range(n)]  # of U
        for i in range(r):
            for j in range(i + 1, n):
                while bc[j][i]:
                    q = bc[i][i] // bc[j][i]
                    bc[i] = [a - q * b for a, b in zip(bc[i], bc[j])]
                    uc[i] = [a - q * b for a, b in zip(uc[i], uc[j])]
                    bc[i], bc[j] = bc[j], bc[i]
                    uc[i], uc[j] = uc[j], uc[i]
            if not bc[i][i]:
                raise LieError(f"the rows of {self.rows} are not independent")
            if bc[i][i] < 0:
                bc[i] = [-a for a in bc[i]]
                uc[i] = [-a for a in uc[i]]
        H = [[bc[j][i] for j in range(i + 1)] for i in range(r)]
        M = [_weight(rs.C, u) for u in uc]
        # Q(lam - M z) = z.P z - 2 z.T lam + Q(lam), from the coroot
        # pairings of the columns of M and of the fundamental weights
        Y = [rs.coroot_pairings(m) for m in M]
        fund = [rs.coroot_pairings([int(i == j) for j in range(n)]) for i in range(n)]
        # Bareiss on [P | -T] with the coordinates reversed
        mat = [
            [sum(map(mul, Y[n - 1 - a], Y[n - 1 - b])) for b in range(n)]
            + [-sum(map(mul, Y[n - 1 - a], f)) for f in fund]
            for a in range(n)
        ]
        levels = [None] * n
        prev = 1
        for k in range(n):
            row = mat[k]
            piv = row[k]
            l = n - 1 - k
            levels[l] = (piv, [row[n - 1 - m] for m in range(l)], row[n:], piv * prev)
            for i in range(k + 1, n):
                f = mat[i][k]
                mat[i] = [(piv * a - f * b) // prev for a, b in zip(mat[i], row)]
            prev = piv
        scale = math.lcm(*(lev[3] for lev in levels))
        levels = [(g, c, lc, scale // d) for g, c, lc, d in levels]
        return scale, levels, H, M

    def ball(self, lam):
        """Every point x of the coset lam + (root lattice) with
        Q(x) <= Q(lam), for Q = `RootSystem.qnorm`, and A x >= 0, as a
        list of pairs (A x, x).

        Q is W-invariant and Q(mu) <= Q(lam) for every dominant mu below
        lam, so these include every weight of V(lam) whose image is
        dominant.  Each level of the walk takes the range of its
        coordinate from the exact bound of `frame`, cut by (A x)_l >= 0
        while l < r, so a prefix is dropped at the first level where its
        terms of Q or its image leave their bounds.
        """
        lam = tuple(lam)
        self.rs.check_rank(lam)
        scale, levels, H, M = self.frame
        n, r = len(M), len(H)
        top = self(lam)
        base = [sum(map(mul, lc, lam)) for _, _, lc, _ in levels]
        out = []
        zs = []
        nu = []

        def walk(l, left, x):
            g, coef, _, w = levels[l]
            c = base[l] + sum(map(mul, coef, zs))
            m = math.isqrt(left // w)
            lo, hi = -((m + c) // g), (m - c) // g
            if l < r:
                h = H[l]  # h[l], the diagonal, is past the end of zs
                rest = top[l] - sum(map(mul, h, zs))
                hi = min(hi, rest // h[l])
            col = M[l]
            x = [a - lo * b for a, b in zip(x, col)]
            for z in range(lo, hi + 1):
                if l < r:
                    nu.append(rest - h[l] * z)
                if l == n - 1:
                    out.append((tuple(nu), tuple(x)))
                else:
                    e = g * z + c
                    zs.append(z)
                    walk(l + 1, left - w * e * e, x)
                    zs.pop()
                if l < r:
                    nu.pop()
                x = [a - b for a, b in zip(x, col)]

        walk(0, scale * self.rs.qnorm(lam), lam)
        return out


_FACTOR_RE = re.compile(r"^([A-G])([0-9]+)$")
_TORUS_RE = re.compile(r"^T([0-9]+)$")


@dataclass(frozen=True)
class TypeSpec:
    """A product type like E6, A5xA1 or D5xT1 (T = central torus factors)."""

    factors: tuple
    torus: int = 0

    @staticmethod
    @lru_cache(maxsize=None)
    def parse(text: str) -> "TypeSpec":
        factors = []
        torus = 0
        for part in re.split("[xX]", text.strip()):
            part = part.strip().upper()
            m = _TORUS_RE.match(part)
            if m:
                if int(m.group(1)) < 1:
                    raise LieError(f"torus factor needs rank at least 1, got {part!r}")
                torus += int(m.group(1))
                continue
            m = _FACTOR_RE.match(part)
            if not m:
                raise LieError(f"cannot parse type factor {part!r}")
            factors.append(SimpleType(m.group(1), int(m.group(2))))
        if not factors and not torus:
            raise LieError("empty type spec")
        return TypeSpec(tuple(factors), torus)

    @property
    def rank_ss(self):
        return sum(f.rank for f in self.factors)

    def __str__(self):
        parts = [str(f) for f in self.factors]
        if self.torus:
            parts.append(f"T{self.torus}")
        return "x".join(parts)


def simple_type(t) -> SimpleType:
    """The simple type of an ambient group: a SimpleType, or a name such
    as "E6"."""
    if isinstance(t, SimpleType):
        return t
    spec = TypeSpec.parse(t)
    if len(spec.factors) != 1 or spec.torus:
        raise LieError(f"ambient group must be simple, got {t!r}")
    return spec.factors[0]


# the former name of the product case: bench/ still builds and traces it
ProductSystem = RootSystem


_WEIGHT_TERM_RE = re.compile(r"^([0-9]+)?([wl])([0-9]+)$")
_CHARGE_RE = re.compile(r"[+-]?[0-9]+")


def parse_weight(text: str, rank: int, letter: str):
    """Parse '3w1+w2' (or '2l3+l6' with letter='l') into weight coordinates.

    An optional '@<int>' suffix gives a torus charge, an optional sign and
    ASCII digits; the parsed charge is returned second (None when absent).
    """
    charge = None
    body = text.strip()
    if "@" in body:
        body, _, ctext = body.partition("@")
        if not _CHARGE_RE.fullmatch(ctext):
            raise LieError(f"bad torus charge {ctext!r}")
        charge = int(ctext)
    mu = [0] * rank
    if body.strip() == "0":
        return tuple(mu), charge
    for term in body.replace(" ", "").split("+"):
        m = _WEIGHT_TERM_RE.match(term)
        if not m or m.group(2) != letter:
            raise LieError(f"cannot parse weight term {term!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        idx = int(m.group(3))
        if not 1 <= idx <= rank:
            raise LieError(f"weight index {idx} out of range (rank {rank})")
        mu[idx - 1] += coeff
    return tuple(mu), charge


def format_weight(mu, letter: str, charge=None):
    terms = []
    for j, c in enumerate(mu, start=1):
        if c == 1:
            terms.append(f"{letter}{j}")
        elif c:
            terms.append(f"{c}{letter}{j}")
    body = "+".join(terms) if terms else "0"
    if charge is not None:
        body += f"@{charge}"
    return body
