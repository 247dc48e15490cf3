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
from operator import add, sub

from .rootsys import SimpleType, neg, root_system


class ChevalleyBasis:
    def __init__(self, t: SimpleType):
        self.type = t
        self.rs = root_system(t)
        rs = self.rs
        self.m = rs.n_pos
        self.rank = rs.rank
        self.dim = 2 * self.m + self.rank
        self._signed_roots = list(rs.positive_roots) + [
            neg(a) for a in rs.positive_roots
        ]
        sr = self._signed_roots
        # every signed root (never 0), its index, its negative and its norm
        self.root_index = {a: k for k, a in enumerate(sr)}
        self._neg = dict(zip(sr, sr[self.m :] + sr[: self.m]))
        self._norm2 = {a: rs.norm2(a) for a in sr}
        self._n_cache = {}
        self._extraspecial = self._pick_extraspecial()
        self._table = self._build_table()

    # -- basic indexing ---------------------------------------------------

    def h_vector(self, coeffs):
        """The element sum_j coeffs[j] H_j of the Cartan subalgebra."""
        return {2 * self.m + j: c for j, c in enumerate(coeffs) if c}

    def h_coroot(self, a):
        """H_a = [X_a, X_{-a}] for a positive root, as a sparse element."""
        return self.h_vector(self.rs.coroot(a))

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
                b = tuple(map(sub, g, a))
                if b in rs.index:
                    pairs[g] = (a, b)
                    break  # positive_roots is ordered; first hit is minimal
        return pairs

    def _string_down(self, b, a):
        """Largest p with b - p*a a root."""
        p = 0
        cur = tuple(map(sub, b, a))
        while cur in self.root_index:
            p += 1
            cur = tuple(map(sub, cur, a))
        return p

    def nconst(self, a, b):
        """N(a, b) with [X_a, X_b] = N(a,b) X_{a+b}; requires a+b a root."""
        a, b = tuple(a), tuple(b)
        key = (a, b)
        if key not in self._n_cache:
            self._n_cache[key] = self._nconst_compute(a, b)
        return self._n_cache[key]

    def _nconst_compute(self, a, b):
        index, minus, norm2, m = self.root_index, self._neg, self._norm2, self.m
        g = tuple(map(add, a, b))
        assert g in index, (a, b)
        if index[a] >= m and index[b] >= m:
            return -self.nconst(minus[a], minus[b])
        if index[a] >= m:
            return -self.nconst(b, a)
        if index[b] >= m:
            # N(xi, -eta) with xi, eta positive roots and zeta = xi - eta = g
            xi, eta, zeta = a, minus[b], g
            if index[zeta] < m:
                num = -self.nconst(eta, zeta) * norm2[zeta]
                den = norm2[xi]
            else:
                zetap = minus[zeta]
                num = self.nconst(zetap, xi) * norm2[zetap]
                den = norm2[eta]
            assert num % den == 0, (a, b)
            return num // den
        # both positive
        a1, b1 = self._extraspecial[g]
        p1 = self._string_down(b1, a1) + 1
        if (a, b) == (a1, b1):
            return p1
        if (b, a) == (a1, b1):
            return -p1
        # Jacobi on (X_{-a1}, X_a, X_b); neither a nor b equals a1 or b1 here,
        # so no [X_r, X_{-r}] terms arise and the X_{b1} coefficient gives
        #   N(a,b) N(-a1,g) = N(-a1,a) N(a-a1,b) + N(b,-a1) N(b-a1,a)
        t1 = 0
        am = tuple(map(sub, a, a1))
        if am in index:
            t1 = self.nconst(minus[a1], a) * self.nconst(am, b)
        t2 = 0
        bm = tuple(map(sub, b, a1))
        if bm in index:
            t2 = self.nconst(b, minus[a1]) * self.nconst(bm, a)
        # N(-a1, g) = (p+1) |b1|^2 / |g|^2 by the cyclic identity
        den = p1 * norm2[b1]
        num = (t1 + t2) * norm2[g]
        assert den != 0 and num % den == 0, (a, b)
        return num // den

    # -- bracket table ------------------------------------------------------

    def _build_table(self):
        """table[i][j]: [e_i, e_j] as a tuple of (k, c) pairs, () for 0."""
        rs = self.rs
        m, rank = self.m, self.rank
        index = self.root_index
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
                k = index.get(tuple(map(add, a, b)))
                if k is not None:
                    n = self.nconst(a, b)  # never 0: N(a, b) = +-(p+1)
                    row[j] = ((k, n),)
                    table[j][i] = ((k, -n),)
                elif j == i + m:  # b = -a, a positive
                    h = self.h_coroot(a)
                    row[j] = tuple(h.items())
                    table[j][i] = tuple([(k, -c) for k, c in h.items()])
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

    def exp_ad_apply(self, ad_cols, v, prime):
        """Apply exp(ad u) modulo ``prime`` to a sparse element given sparse
        columns of ad u; returns the nonzero residues as a sparse element.

        ad u must be nilpotent (this is not checked; the loop runs until the
        iterate vanishes, at most dim steps), and ``prime`` must exceed dim
        so that every k! is invertible.
        """

        def scale(vec, k):
            kin = pow(k, -1, prime)
            return {i: y for i, x in vec.items() if (y := x * kin % prime)}

        # the iterates ad(u)^k v / k! are sparse dicts, reduced once a step
        w = scale(v, 1)
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
        return scale(acc, 1)


@lru_cache(maxsize=None)
def chevalley_basis(t: SimpleType) -> ChevalleyBasis:
    return ChevalleyBasis(t)
