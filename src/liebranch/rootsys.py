"""Root-system combinatorics for the finite simple Lie types.

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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .linalg import inverse


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
            assert d[i] * C[i][j] == d[j] * C[j][i]
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


class RootSystem:
    """The root and weight combinatorics of one simple type."""

    def __init__(self, t: SimpleType):
        self.type = t
        self.rank = t.rank
        self.C, self.d = cartan_data(t)
        self.positive_roots = self._generate_positive_roots()
        self.index = {a: k for k, a in enumerate(self.positive_roots)}
        self.n_pos = len(self.positive_roots)
        self.highest_root = self.positive_roots[-1]
        self.rho = (1,) * self.rank
        self.dual_perm = self._dual_permutation()
        # weight coordinates -> simple-root coordinates
        self.C_inv = inverse(self.C)
        # <omega_j, 2 rho^vee>, twice the height of omega_j: for height keys
        two_rho = [2 * sum(col) for col in zip(*self.C_inv)]
        assert all(c.denominator == 1 for c in two_rho), two_rho
        self._two_rho_covector = [int(c) for c in two_rho]

    # -- construction --------------------------------------------------

    def _generate_positive_roots(self):
        r = self.rank
        simples = [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]
        found = set(simples)
        layer = list(simples)
        out = list(simples)
        while layer:
            nxt = []
            for a in layer:
                wa = self.weight_of_root(a)
                for i in range(r):
                    # length of the alpha_i-string below a
                    p = 0
                    b = list(a)
                    while True:
                        b[i] -= 1
                        if min(b) < 0 or tuple(b) not in found:
                            break
                        p += 1
                    if p - wa[i] > 0:
                        c = list(a)
                        c[i] += 1
                        c = tuple(c)
                        if c not in found:
                            found.add(c)
                            nxt.append(c)
                            out.append(c)
            layer = nxt
        out.sort(key=lambda a: (sum(a), a))
        return out

    def _dual_permutation(self):
        n, fam = self.rank, self.type.family
        perm = list(range(n))
        if fam == "A":
            perm = list(reversed(perm))
        elif fam == "D" and n % 2 == 1:
            perm[n - 2], perm[n - 1] = perm[n - 1], perm[n - 2]
        elif fam == "E" and n == 6:
            perm = [5, 1, 4, 3, 2, 0]
        return perm

    # -- root arithmetic ------------------------------------------------

    def is_root(self, a):
        return a in self.index or tuple(-x for x in a) in self.index

    def weight_of_root(self, a):
        C = self.C
        return tuple(sum(C[i][j] * a[j] for j in range(self.rank)) for i in range(self.rank))

    def inner_rr(self, a, b):
        """Invariant form of two roots given in root coordinates."""
        wb = self.weight_of_root(b)
        return sum(self.d[k] * a[k] * wb[k] for k in range(self.rank))

    def norm2(self, a):
        return self.inner_rr(a, a)

    def pair_wr(self, lam, a):
        """Invariant form (lam, alpha), lam in weight and alpha in root coords."""
        return sum(self.d[j] * lam[j] * a[j] for j in range(self.rank))

    def coroot(self, a):
        """alpha^vee expanded over the simple coroots H_j (integer tuple)."""
        da = self.norm2(a)
        assert da % 2 == 0
        da //= 2
        out = []
        for j in range(self.rank):
            num = self.d[j] * a[j]
            if num % da:
                raise LieError(f"non-integral coroot for {a}")
            out.append(num // da)
        return tuple(out)

    # -- Weyl group action on weights ------------------------------------

    def reflect(self, mu, i):
        mi = mu[i]
        if mi == 0:
            return tuple(mu)
        C = self.C
        return tuple(mu[j] - mi * C[j][i] for j in range(self.rank))

    def is_dominant(self, mu):
        return all(x >= 0 for x in mu)

    def dominant_signed(self, mu):
        """Dominant representative of the orbit of mu and the sign (-1)^length."""
        mu = list(mu)
        sign = 1
        C = self.C
        r = self.rank
        while True:
            for i in range(r):
                if mu[i] < 0:
                    mi = mu[i]
                    for j in range(r):
                        mu[j] -= mi * C[j][i]
                    sign = -sign
                    break
            else:
                return tuple(mu), sign

    def weyl_orbit_layers(self, lam):
        """Yield the orbit of a dominant weight layer by layer.

        Layer k holds the orbit elements at distance k from the dominant
        chamber in the weak order; each element appears exactly once.
        """
        if not self.is_dominant(lam):
            raise LieError("weyl_orbit_layers wants a dominant weight")
        layer = {tuple(lam)}
        while layer:
            yield layer
            nxt = set()
            for w in layer:
                for i in range(self.rank):
                    if w[i] > 0:
                        nxt.add(self.reflect(w, i))
            layer = nxt

    @cached_property
    def _mirrors(self):
        """(coroot, weight) of every positive root: the reflections s_a."""
        return [(self.coroot(a), self.weight_of_root(a)) for a in self.positive_roots]

    def weyl_orbit(self, lam, cone=()):
        """Yield each point of the orbit of a dominant weight once.

        ``cone`` is a list of linearly independent roots (root
        coordinates); only the orbit points x with <x, beta^vee> >= 0 for
        every beta in it are yielded.  The first such point is reached
        by reflecting lam in cone roots it pairs negatively with (each
        step raises a linear functional positive on the cone roots).
        The cone is a union of closed chambers cut out by root
        hyperplanes, and its chambers are gallery-connected, so walking
        by root reflections that stay inside it reaches every point at
        a cost proportional to the points yielded.
        """
        if not cone:
            for layer in self.weyl_orbit_layers(lam):
                yield from layer
            return
        if not self.is_dominant(lam):
            raise LieError("weyl_orbit wants a dominant weight")
        walls = [(self.coroot(b), self.weight_of_root(b)) for b in cone]
        mirrors = self._mirrors

        def inside(x):
            return all(sum(c * v for c, v in zip(cv, x)) >= 0 for cv, _ in walls)

        x = tuple(lam)
        while not inside(x):
            for cv, wb in walls:
                p = sum(c * v for c, v in zip(cv, x))
                if p < 0:
                    x = tuple(v - p * w for v, w in zip(x, wb))
        seen = {x}
        stack = [x]
        while stack:
            x = stack.pop()
            yield x
            for cv, wa in mirrors:
                p = sum(c * v for c, v in zip(cv, x))
                if p:
                    y = tuple(v - p * w for v, w in zip(x, wa))
                    if y not in seen:
                        # points outside the cone are marked too: tested once
                        seen.add(y)
                        if inside(y):
                            stack.append(y)

    def weyl_order(self):
        fam, n = self.type.family, self.rank
        if fam == "A":
            return math.factorial(n + 1)
        if fam in ("B", "C"):
            return (1 << n) * math.factorial(n)
        if fam == "D":
            return (1 << (n - 1)) * math.factorial(n)
        return _EXCEPTIONAL_WEYL_ORDER[str(self.type)]

    def stabilizer_order(self, lam):
        zero = [i for i in range(self.rank) if lam[i] == 0]
        order = 1
        for comp in diagram_components(self.C, zero):
            t, _ = match_cartan([[self.C[i][j] for j in comp] for i in comp])
            order *= root_system(t).weyl_order()
        return order

    def orbit_size(self, lam):
        dom, _ = self.dominant_signed(lam)
        return self.weyl_order() // self.stabilizer_order(dom)

    # -- weights ---------------------------------------------------------

    def fundamental(self, i):
        """Fundamental weight for 1-based node i."""
        if not 1 <= i <= self.rank:
            raise LieError(f"node {i} out of range for {self.type}")
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    def dual_weight(self, lam):
        return tuple(lam[self.dual_perm[j]] for j in range(self.rank))

    def dual_node(self, i):
        """-w0 as an involution of 1-based node labels."""
        return self.dual_perm[i - 1] + 1

    def weyl_dimension(self, lam):
        if not self.is_dominant(lam):
            raise LieError("weyl_dimension wants a dominant weight")
        num = 1
        den = 1
        lr = [lam[j] + 1 for j in range(self.rank)]
        for a in self.positive_roots:
            num *= self.pair_wr(lr, a)
            den *= self.pair_wr(self.rho, a)
        assert num % den == 0
        return num // den

    def height_key(self, mu):
        """<mu, 2 rho^vee>: a linear functional positive on positive roots."""
        return sum(c * x for c, x in zip(self._two_rho_covector, mu))

    def root_coefficients(self, mu):
        """Expansion of a weight over the simple roots (integer list)."""
        out = []
        for row in self.C_inv:
            v = sum(c * x for c, x in zip(row, mu))
            if v.denominator != 1:
                raise LieError(f"{list(mu)} is not in the root lattice")
            out.append(int(v))
        return out


@lru_cache(maxsize=None)
def root_system(t: SimpleType) -> RootSystem:
    return RootSystem(t)


_FACTOR_RE = re.compile(r"^([A-G])([0-9]+)$")
_TORUS_RE = re.compile(r"^T([0-9]+)$")


@dataclass(frozen=True)
class TypeSpec:
    """A product type like E6, A5xA1 or D5xT1 (T = central torus factors)."""

    factors: tuple
    torus: int = 0

    @staticmethod
    def parse(text: str) -> "TypeSpec":
        factors = []
        torus = 0
        for part in text.strip().split("x"):
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


class ProductSystem:
    """Weight combinatorics of a product of simple factors.

    Weights are integer tuples over the concatenated fundamental weights
    of the semisimple part; central torus charges are tracked separately
    by the callers (they are an embedding-level notion).
    """

    def __init__(self, spec: TypeSpec):
        self.spec = spec
        self.systems = [root_system(f) for f in spec.factors]
        self.rank = spec.rank_ss
        self.slices = []
        at = 0
        for s in self.systems:
            self.slices.append(slice(at, at + s.rank))
            at += s.rank

    def split(self, mu):
        return [tuple(mu[sl]) for sl in self.slices]

    def join(self, parts):
        out = []
        for p in parts:
            out.extend(p)
        return tuple(out)

    def is_dominant(self, mu):
        return all(x >= 0 for x in mu)

    def dominant_signed(self, mu):
        parts = []
        sign = 1
        for s, p in zip(self.systems, self.split(mu)):
            dp, sg = s.dominant_signed(p)
            parts.append(dp)
            sign *= sg
        return self.join(parts), sign

    def weyl_order(self):
        n = 1
        for s in self.systems:
            n *= s.weyl_order()
        return n

    def orbit_size(self, mu):
        n = 1
        for s, p in zip(self.systems, self.split(mu)):
            n *= s.orbit_size(p)
        return n

    def weyl_dimension(self, mu):
        n = 1
        for s, p in zip(self.systems, self.split(mu)):
            n *= s.weyl_dimension(p)
        return n

    def dual_weight(self, mu):
        return self.join(
            [s.dual_weight(p) for s, p in zip(self.systems, self.split(mu))]
        )

    @property
    def rho(self):
        return (1,) * self.rank

    def weyl_orbit_signed(self, mu, bound):
        """Yield (x, sign) over the orbit points x of a dominant weight mu
        with height_key(mu - x) <= bound.

        The sign is (-1)^k for a point at distance k from mu in the weak
        order; ``bound = 2 * height_key(mu)`` keeps the whole orbit, and
        a negative bound keeps nothing.  A weak-order step x -> s_i x
        with x[i] > 0 adds x[i] * alpha_i to mu - x, so the height grows
        along every step and the kept points of each factor are an order
        ideal: walking a factor's orbit layer by layer, a point above the
        bound is not expanded.  The kept points of the factors are then
        combined lazily, keeping the tuples whose heights add up to at
        most the bound.
        """
        if not self.is_dominant(mu):
            raise LieError("weyl_orbit_signed wants a dominant weight")
        kept = []
        for s, part in zip(self.systems, self.split(mu)):
            top = s.height_key(part)
            pts = []
            layer, sign = {part}, 1
            while layer:
                nxt = set()
                for x in layer:
                    h = top - s.height_key(x)
                    if h > bound:
                        continue
                    pts.append((h, x, sign))
                    for i in range(s.rank):
                        if x[i] > 0:
                            nxt.add(s.reflect(x, i))
                layer, sign = nxt, -sign
            pts.sort(key=lambda p: p[0])
            kept.append(pts)

        def combine(k, room):
            if k == len(kept):
                yield (), 1
                return
            for h, x, sign in kept[k]:
                if h > room:
                    return
                for rest, rsign in combine(k + 1, room - h):
                    yield x + rest, sign * rsign

        yield from combine(0, bound)

    def height_key(self, mu):
        return sum(
            s.height_key(p) for s, p in zip(self.systems, self.split(mu))
        )


_WEIGHT_TERM_RE = re.compile(r"^([0-9]+)?([wl])([0-9]+)$")


def parse_weight(text: str, rank: int, letter: str):
    """Parse '3w1+w2' (or '2l3+l6' with letter='l') into weight coordinates.

    An optional '@<int>' suffix gives a torus charge; the parsed charge is
    returned second (None when absent).
    """
    charge = None
    body = text.strip()
    if "@" in body:
        body, _, ctext = body.partition("@")
        try:
            charge = int(ctext)
        except ValueError:
            raise LieError(f"bad torus charge {ctext!r}") from None
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
