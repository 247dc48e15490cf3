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
a+b+c = 0, and the Jacobi identity (Carter, Simple Groups of Lie Type,
section 4.2).  They are computed in one pass over the positive roots in
height order, on integer codes of the roots: the Jacobi identity gives
each positive pair's constant from constants of lower height, and the
cyclic identity and N(-a,-b) = -N(a,b) give the other five pairs of the
root triples {a, b, -a-b} and {-a, -b, a+b} from it.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .rootsys import LieError, SimpleType, neg, root_system


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
        self.root_index = {a: k for k, a in enumerate(self._signed_roots)}
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

    # -- bracket table ------------------------------------------------------

    def _build_table(self):
        """table[i][j]: [e_i, e_j] as a tuple of (k, c) pairs, () for 0."""
        rs, m, rank = self.rs, self.m, self.rank
        table = [[()] * self.dim for _ in range(self.dim)]
        # a signed root a has the code sum_k a[k] * 32**k, so adding roots
        # adds codes.  Root coefficients are at most 6 in absolute value
        # and a root string has at most 4 roots, so every vector whose code
        # is looked up below (a sum or difference of two roots, or a point
        # b - t*a with t <= 3) differs from each root by less than 32 in
        # every coordinate: its code is in the index exactly when it is a
        # root
        powers = [32**k for k in range(rank)]
        codes = [sum(map(mul, a, powers)) for a in self._signed_roots]
        index = {c: k for k, c in enumerate(codes)}
        norm = [rs.norm2(a) for a in rs.positive_roots]

        def exact(num, den):
            q, r = divmod(num, den)
            if r:
                raise LieError(f"{self.type}: N = {num}/{den} is not an integer")
            return q

        def put(i, j, k, n):
            # N(a, b) = n for positive a + b = c fixes the six pairs of the
            # triples {a, b, -c} and {-a, -b, c}; each is stored both ways
            ca, cb = exact(n * norm[i], norm[k]), exact(n * norm[j], norm[k])
            for u, v, w, c in (
                (i, j, k, n),
                (i + m, j + m, k + m, -n),
                (j, k + m, i + m, ca),
                (j + m, k, i, -ca),
                (k + m, i, j + m, cb),
                (k, i + m, j, -cb),
            ):
                table[u][v] = ((w, c),)
                table[v][u] = ((w, -c),)

        # the positive pairs i < j of each positive root sum k, i ascending,
        # so that the first is the extraspecial pair
        sums = [[] for _ in range(m)]
        for i in range(m):
            hits = map(index.get, map(codes[i].__add__, codes[i + 1 : m]))
            for j, k in enumerate(hits, i + 1):
                if k is not None:
                    sums[k].append((i, j))
        # positive_roots is in height order, so every constant read below
        # belongs to a root triple of lower height, already put
        for k, pairs in enumerate(sums):
            if not pairs:
                continue
            # p1 = p + 1, p the length of the a1-string below b1
            a1, b1 = pairs[0]
            p1, cur = 1, codes[b1] - codes[a1]
            while cur in index:
                p1 += 1
                cur -= codes[a1]
            put(a1, b1, k, p1)
            # Jacobi on (X_{-a1}, X_a, X_b) for the other pairs, g = a + b:
            # neither a nor b is a1 or b1, so no [X_r, X_{-r}] terms arise
            # and the X_{b1} coefficient gives
            #   N(a,b) N(-a1,g) = N(-a1,a) N(a-a1,b) + N(b,-a1) N(b-a1,a)
            # with N(-a1, g) = (p+1) |b1|^2 / |g|^2 by the cyclic identity
            for a, b in pairs[1:]:
                t = 0
                am = index.get(codes[a] - codes[a1])
                if am is not None:
                    t += table[a1 + m][a][0][1] * table[am][b][0][1]
                bm = index.get(codes[b] - codes[a1])
                if bm is not None:
                    t += table[b][a1 + m][0][1] * table[bm][a][0][1]
                put(a, b, k, exact(t * norm[k], p1 * norm[b1]))
        for i, a in enumerate(rs.positive_roots):
            h = self.h_coroot(a)
            table[i][i + m] = tuple(h.items())
            table[i + m][i] = tuple([(k, -c) for k, c in h.items()])
            for k, x in enumerate(rs.weight_of_root(a)):
                if x:
                    # [X_a, H_k] = -<a, alpha_k^vee> X_a, and the same for -a
                    table[i][2 * m + k] = ((i, -x),)
                    table[2 * m + k][i] = ((i, x),)
                    table[i + m][2 * m + k] = ((i + m, x),)
                    table[2 * m + k][i + m] = ((i + m, -x),)
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
