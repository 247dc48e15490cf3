"""Integral Chevalley bases of the simple Lie algebras.

Basis order: root vectors ``X_a`` for positive roots a (in the root
system's height/lex order), then ``X_{-a}`` in the same order, then the
simple coroots ``H_1 .. H_r``.  Elements are sparse dicts mapping basis
index to a coefficient; the package builds only integer elements.

Structure constants follow the classical normalization: for each
non-simple positive root g, its extraspecial factorization g = a1 + b1
(a1 the order-minimal positive root with b1 = g - a1 also positive) has
N(a1, b1) = +(p+1) where p is the length of the a1-string below b1.  All
other constants are forced from these by antisymmetry, the rule
N(-a,-b) = -N(a,b), the cyclic identity N(a,b)/(c,c) = N(b,c)/(a,a) for
a+b+c = 0, and the Jacobi identity; they are computed by a memoized
recursion on those relations rather than by a closed formula, so the
defining identities hold by construction.
"""

from __future__ import annotations

from functools import lru_cache

from .rootsys import SimpleType, root_system


def neg(a):
    return tuple(-x for x in a)


class ChevalleyBasis:
    def __init__(self, t: SimpleType):
        self.type = t
        self.rs = root_system(t)
        rs = self.rs
        self.m = rs.n_pos
        self.rank = rs.rank
        self.dim = 2 * self.m + self.rank
        self.root_index = {}
        for k, a in enumerate(rs.positive_roots):
            self.root_index[a] = k
            self.root_index[neg(a)] = self.m + k
        self._signed_roots = list(rs.positive_roots) + [
            neg(a) for a in rs.positive_roots
        ]
        self._n_cache = {}
        self._extraspecial = self._pick_extraspecial()
        self._table = self._build_table()

    # -- basic indexing ---------------------------------------------------

    def x(self, a):
        """Basis element X_a for a signed root a."""
        return {self.root_index[tuple(a)]: 1}

    def h(self, i):
        """Simple coroot H_i, 0-based."""
        return {2 * self.m + i: 1}

    def h_coroot(self, a):
        """H_a = [X_a, X_{-a}] for a positive root, as a sparse element."""
        hv = self.rs.coroot(a)
        return {2 * self.m + j: c for j, c in enumerate(hv) if c}

    def signed_root_of_index(self, k):
        return self._signed_roots[k] if k < 2 * self.m else None

    # -- structure constants ----------------------------------------------

    def _pick_extraspecial(self):
        rs = self.rs
        pairs = {}
        for g in rs.positive_roots:
            if sum(g) == 1:
                continue
            for a in rs.positive_roots:
                b = tuple(x - y for x, y in zip(g, a))
                if min(b) >= 0 and b in rs.index:
                    pairs[g] = (a, b)
                    break  # positive_roots is ordered; first hit is minimal
        return pairs

    def _string_down(self, b, a):
        """Largest p with b - p*a a root."""
        rs = self.rs
        p = 0
        cur = b
        while True:
            cur = tuple(x - y for x, y in zip(cur, a))
            if not any(cur) or not rs.is_root(cur):
                return p
            p += 1

    def nconst(self, a, b):
        """N(a, b) with [X_a, X_b] = N(a,b) X_{a+b}; requires a+b a root."""
        a, b = tuple(a), tuple(b)
        key = (a, b)
        if key not in self._n_cache:
            self._n_cache[key] = self._nconst_compute(a, b)
        return self._n_cache[key]

    def _nconst_compute(self, a, b):
        rs = self.rs
        g = tuple(x + y for x, y in zip(a, b))
        assert rs.is_root(g), (a, b)
        if min(a) < 0 and min(b) < 0:
            return -self.nconst(neg(a), neg(b))
        if min(a) < 0:
            return -self.nconst(b, a)
        if min(b) < 0:
            # N(xi, -eta) with xi, eta positive roots, xi - eta a root
            xi, eta = a, neg(b)
            zeta = tuple(x - y for x, y in zip(xi, eta))
            if min(zeta) >= 0:
                num = -self.nconst(eta, zeta) * rs.norm2(zeta)
                den = rs.norm2(xi)
            else:
                zetap = neg(zeta)
                num = self.nconst(zetap, xi) * rs.norm2(zetap)
                den = rs.norm2(eta)
            assert num % den == 0, (a, b)
            return num // den
        # both positive
        a1, b1 = self._extraspecial[g]
        if (a, b) == (a1, b1):
            return self._string_down(b1, a1) + 1
        if (b, a) == (a1, b1):
            return -(self._string_down(b1, a1) + 1)
        # Jacobi on (X_{-a1}, X_a, X_b); neither a nor b equals a1 or b1 here,
        # so no [X_r, X_{-r}] terms arise and the X_{b1} coefficient gives
        #   N(a,b) N(-a1,g) = N(-a1,a) N(a-a1,b) + N(b,-a1) N(b-a1,a)
        t1 = 0
        am = tuple(x - y for x, y in zip(a, a1))
        if any(am) and rs.is_root(am):
            t1 = self.nconst(neg(a1), a) * self.nconst(am, b)
        t2 = 0
        bm = tuple(x - y for x, y in zip(b, a1))
        if any(bm) and rs.is_root(bm):
            t2 = self.nconst(b, neg(a1)) * self.nconst(bm, a)
        # N(-a1, g) = (p+1) |b1|^2 / |g|^2 by the cyclic identity
        den = (self._string_down(b1, a1) + 1) * rs.norm2(b1)
        num = (t1 + t2) * rs.norm2(g)
        assert den != 0 and num % den == 0, (a, b)
        return num // den

    # -- bracket table ------------------------------------------------------

    def _build_table(self):
        """table[i][j]: [e_i, e_j] as a tuple of (k, c) pairs, () for 0."""
        rs = self.rs
        m, rank = self.m, self.rank
        table = [[()] * self.dim for _ in range(self.dim)]
        sr = self._signed_roots
        # each pair is computed once, for i < j, and stored both ways
        for i in range(2 * m):
            a = sr[i]
            row = table[i]
            wa = rs.weight_of_root(a)
            for k in range(rank):
                if wa[k]:
                    # [X_a, H_k] = -<a, alpha_k^vee> X_a
                    row[2 * m + k] = ((i, -wa[k]),)
                    table[2 * m + k][i] = ((i, wa[k]),)
            for j in range(i + 1, 2 * m):
                b = sr[j]
                s = tuple(x + y for x, y in zip(a, b))
                if not any(s):
                    assert min(a) >= 0  # i < m <= j when b = -a
                    h = self.h_coroot(a)
                    row[j] = tuple(h.items())
                    table[j][i] = tuple([(k, -c) for k, c in h.items()])
                elif rs.is_root(s):
                    n = self.nconst(a, b)
                    if n:
                        k = self.root_index[s]
                        row[j] = ((k, n),)
                        table[j][i] = ((k, -n),)
        return table

    def bracket(self, u, v):
        """Lie bracket of two sparse elements."""
        out = {}
        table = self._table
        for i, ci in u.items():
            if not ci:
                continue
            row = table[i]
            for j, cj in v.items():
                ent = row[j]
                if not ent:
                    continue
                c = ci * cj
                for k, w in ent:
                    nv = out.get(k, 0) + c * w
                    if nv:
                        out[k] = nv
                    else:
                        out.pop(k, None)
        return out

    def ad_columns(self, u):
        """Sparse columns of ad(u): col[j] = [u, e_j], the sum over i of
        u_i times row i of the table."""
        cols = [{} for _ in range(self.dim)]
        for i, ci in u.items():
            if not ci:
                continue
            for col, ent in zip(cols, self._table[i]):
                for k, w in ent:
                    col[k] = col.get(k, 0) + ci * w
        return [{k: c for k, c in col.items() if c} for col in cols]

    def to_dense(self, u):
        v = [0] * self.dim
        for k, c in u.items():
            v[k] = c
        return v

    def exp_ad_apply(self, ad_cols, v, prime):
        """Apply exp(ad u) modulo ``prime`` to a dense vector given sparse
        columns of ad u; returns the residues as a dense list.

        ad u must be nilpotent (this is not checked; the loop runs until the
        iterate vanishes, at most dim steps), and ``prime`` must exceed dim
        so that every k! is invertible.
        """

        def scale(vec, k):
            kin = pow(k, -1, prime)
            return {i: y for i, x in vec.items() if (y := x * kin % prime)}

        # the iterates ad(u)^k v / k! are sparse dicts, reduced once a step
        w = scale({i: x for i, x in enumerate(v) if x}, 1)
        acc = dict(w)
        for k in range(1, self.dim + 1):
            nw = {}
            for j, c in w.items():
                for i, a in ad_cols[j].items():
                    nw[i] = nw.get(i, 0) + c * a
            w = scale(nw, k)
            if not w:
                break
            for i, c in w.items():
                acc[i] = acc.get(i, 0) + c
        out = [0] * self.dim
        for i, c in scale(acc, 1).items():
            out[i] = c
        return out


@lru_cache(maxsize=None)
def chevalley_basis(t: SimpleType) -> ChevalleyBasis:
    return ChevalleyBasis(t)
