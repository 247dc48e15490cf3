"""Distinguished reductive subalgebras of the exceptional Lie algebras.

Each catalog entry describes one conjugacy class of maximal connected
reductive subgroups H of a simple exceptional group G, in one of four
shapes:

- ``subsystem``: H is generated by root subspaces of G; its simple roots
  are roots of G (the classes produced by removing one node from the
  extended Dynkin diagram).
- ``levi``: H is a maximal Levi subgroup, semisimple part times a
  one-dimensional central torus; a coweight vector records the torus.
- ``folded``: the simple generators of H are signed sums of root vectors
  of G (fixed points of a diagram involution, or such a subalgebra
  together with its centralizing sl2).
- ``typeonly``: only the isomorphism type is known to the catalog; these
  entries carry enough data for dimension counts but no generators.

Generator conventions: for each simple root j of H the entry describes
``x_j`` (raising), ``y_j`` (lowering) and ``h_j = [x_j, y_j]`` in the
ambient Chevalley basis, satisfying ``[h_i, x_j] = C_H[i][j] x_j``.  Each
generator is a list of signed G-roots: the chev lines of a folded entry,
or the one-term list of the simple-root image of a subsystem or Levi
entry (filled from the removal node when a subsystem has no root lines).
h_j is the sum of the coroots of those roots, a row over the simple
coroots of G.  Weight restriction is the linear map given by the rows
(plus the torus coweight for Levi entries), `Embedding.weight_image`,
and needs no Chevalley basis.  Loading builds each record whole, in one
pass: the parser collects the record's directive lines in one dict, and
`Embedding` sets every field from it, its generator lists and its
weight map with the rows checked against the Cartan matrix of H, so no
field of an entry is filled in after loading.  An entry holds
catalog data only: x_j, y_j and the rest of Lie(H) in the Chevalley
basis of G are built from the generator lists by `sphericity.lie_h`,
the one consumer that needs them.

Both data files, ``embeddings.txt`` and ``rules.txt``, are read by
`read_data_file` in one grammar, `data_lines`.
"""

from __future__ import annotations

import importlib.resources
import os
import re
from functools import lru_cache
from operator import mul, sub

from .rootsys import (
    LieError,
    SimpleType,
    TypeSpec,
    WeightImage,
    diagram_components,
    match_cartan,
    neg,
    root_system,
    simple_type,
)

KINDS = ("subsystem", "levi", "folded", "typeonly")


def node_subsystem_roots(rs, node):
    """Positive roots of the subsystem left by dropping ``node`` (1-based)
    from the extended diagram, sorted.

    Borel-de Siebenthal: the roots whose coefficient at the removed node
    is divisible by its coefficient m in the highest root.
    """
    if not 1 <= node <= rs.rank:
        raise LieError(f"node {node} out of range for {rs.type}")
    m = rs.highest_root[node - 1]
    return sorted(a for a in rs.positive_roots if a[node - 1] % m == 0)


def subsystem_simple_images(g: SimpleType, node: int):
    """Simple-root images for the subsystem obtained by dropping ``node``
    (1-based) from the extended diagram of g.

    The subsystem's positive roots are taken inside the positive roots of
    g; the returned factors are Bourbaki-ordered, largest rank first.
    """
    rs = root_system(g)
    pos = node_subsystem_roots(rs, node)
    pos_set = set(pos)
    simples = []
    for a in pos:
        # a - a = 0 is not in pos_set
        if not any(tuple(map(sub, a, b)) in pos_set for b in pos):
            simples.append(a)
    # split into connected components and put each in Bourbaki order:
    # M[i][j] = <beta_j, beta_i^vee>
    weights = [rs.weight_of_root(b) for b in simples]
    M = [[sum(map(mul, c, w)) for w in weights] for c in map(rs.coroot, simples)]
    factors = []
    for comp in diagram_components(M):
        t, order = match_cartan([[M[i][j] for j in comp] for i in comp])
        factors.append((t, [simples[comp[k]] for k in order]))
    factors.sort(key=lambda f: (-f[0].rank, f[0].family))
    return factors, pos


class Embedding:
    """One catalog entry: a reductive subalgebra of an exceptional algebra.

    Built whole from the directive lines of its record, ``lines``: a dict
    keyed ``("kind",)``, ``("node",)``, ``("coweight",)``, ``("root", j)``
    and ``("chev", j)``.  Every field is set here, the weight map
    included, and none is filled in later.
    """

    def __init__(self, ambient: SimpleType, name: str, lines):
        self.ambient = ambient
        self.name = name
        self.kind = lines.get(("kind",), "typeonly")
        self.spec = TypeSpec.parse(name)
        self.hsys = root_system(self.spec)
        self.node = lines.get(("node",))  # extended-diagram removal node (subsystem)
        self.coweight = lines.get(("coweight",))  # torus pairing row (levi)
        roots = _numbered(lines, "root", self.rank_ss)
        chev = _numbered(lines, "chev", self.rank_ss)
        _check_record(self, roots, chev)
        # list of G-roots, one per H node
        self.simple_images = _node_roots(self, roots)
        # per H node, a list of (sign, G-root) terms
        self.gen_terms = (
            chev if self.simple_images is None else [[(1, b)] for b in self.simple_images]
        )
        self._weight_map = None if self.gen_terms is None else _check_roots(self)

    # -- bookkeeping -------------------------------------------------------

    @property
    def rank_ss(self):
        return self.spec.rank_ss

    def borel_dim(self):
        """Dimension of a Borel subgroup of H."""
        return self.spec.torus + self.hsys.n_pos + self.hsys.rank

    def __repr__(self):
        return f"Embedding({self.name} < {self.ambient}, {self.kind})"

    # -- weight restriction ---------------------------------------------------

    def weight_image(self):
        """Weight restriction as one linear map on G-weights, with the
        table that orbit walks carry it by.  Its rows are the restriction
        rows, row j the coroot sum of generator j over the simple coroots
        of G, then the torus coweight of a Levi entry.  For subsystem and
        Levi entries the first rows are the coroots of `simple_images`,
        the cone walls.  Built and checked when the catalog loads; an
        entry without generators has none."""
        if self._weight_map is None:
            raise LieError(f"{self.name} < {self.ambient}: no generators known")
        return self._weight_map


def _coroot_sum(rs, terms):
    """Restriction row of one generator: the sum of the coroots of its
    terms, over the simple coroots."""
    return tuple(map(sum, zip(*(rs.coroot(b) for _, b in terms))))


# -- data file parsing ---------------------------------------------------------


_ROOT_TUPLE_RE = re.compile(r"^\(([-0-9,\s]+)\)$")


def _parse_root(tok, rank):
    m = _ROOT_TUPLE_RE.match(tok)
    if m:
        try:
            vals = tuple(int(p) for p in m.group(1).split(","))
        except ValueError:
            raise LieError(f"cannot parse root tuple {tok!r}") from None
        if len(vals) != rank:
            raise LieError(f"root tuple {tok} has wrong length")
        return vals
    m = re.match(r"^a([0-9]+)$", tok)
    if m:
        j = int(m.group(1))
        if not 1 <= j <= rank:
            raise LieError(f"simple root index {j} out of range")
        return tuple(1 if k == j - 1 else 0 for k in range(rank))
    raise LieError(f"cannot parse root token {tok!r}")


def _numbered(lines, head, n):
    """The values of a record's ``head j`` lines in the order of j, which
    must run over 1..n; None when the record has no such line."""
    got = {key[1]: v for key, v in lines.items() if key[0] == head}
    if not got:
        return None
    if sorted(got) != list(range(1, n + 1)):
        raise LieError(f"{head} lines must cover 1..{n}")
    return [got[j] for j in range(1, n + 1)]


def _check_record(r, roots, chev):
    """Each kind has the directives it reads, and no others."""
    if r.kind == "folded" and chev is None:
        raise LieError("kind folded needs chev lines")
    if chev is not None and r.kind != "folded":
        raise LieError("chev lines go only with kind folded")
    if roots is not None and r.kind not in ("subsystem", "levi"):
        raise LieError("root lines go only with kind subsystem or levi")
    if r.node is not None and r.kind != "subsystem":
        raise LieError("a node line goes only with kind subsystem")
    if r.coweight is not None and r.kind != "levi":
        raise LieError("a coweight line goes only with kind levi")
    # the central torus is read from the name: one T1 factor for a levi
    # record, none for any other kind
    if r.kind == "levi" and r.spec.torus != 1:
        raise LieError(f"a levi name needs exactly one T1 factor, got {r.name}")
    if r.kind != "levi" and r.spec.torus:
        raise LieError(f"a T factor goes only with kind levi, got {r.name}")
    if r.kind == "subsystem" and r.node is None and roots is None:
        raise LieError("kind subsystem needs a node or root lines")
    if r.kind == "levi" and (roots is None or r.coweight is None):
        raise LieError("kind levi needs root lines and a coweight")
    if r.kind == "levi" and r.rank_ss + 1 != r.ambient.rank:
        raise LieError(
            f"a levi subgroup of {r.ambient} has semisimple rank "
            f"{r.ambient.rank - 1}, not {r.rank_ss}"
        )
    if r.kind == "levi" and not any(r.coweight):
        raise LieError("a levi coweight must be nonzero")


def _node_roots(r, roots):
    """The simple-root images of a record: its root lines, checked against
    the removal node of a subsystem that has one, or else, for a subsystem
    given by its node alone, taken from the node, factor by factor in the
    declared order."""
    if r.kind != "subsystem" or r.node is None:
        return roots
    if roots is not None:
        pos = set(node_subsystem_roots(root_system(r.ambient), r.node))
        for b in roots:
            if b not in pos and neg(b) not in pos:
                raise LieError(f"root {b} is not in the subsystem of node {r.node}")
        if len(pos) != r.hsys.n_pos:
            raise LieError(
                f"node {r.node}: {len(pos)} positive roots, not {r.hsys.n_pos}"
            )
        return roots
    factors, _ = subsystem_simple_images(r.ambient, r.node)
    got = [t for t, _ in factors]
    if sorted(got) != sorted(r.spec.factors):
        raise LieError(f"removal node {r.node} gives {'x'.join(map(str, got))}")
    images = []
    for want in r.spec.factors:
        hit = next(f for f in factors if f[0] == want)
        factors.remove(hit)
        images.extend(hit[1])
    return images


def _check_roots(r):
    """The generators of a record describe H, checked on the root system
    of G alone (the Serre relations and the span dimension need a
    Chevalley basis and are checked by the tests, in ``tests/oracles.py``).
    Returns the weight map: the restriction rows, then a Levi coweight."""
    rs = root_system(r.ambient)
    gens = r.gen_terms
    for terms in gens:
        for _, b in terms:
            if not rs.is_root(b):
                raise LieError(f"{b} is not a root of {r.ambient}")
    # every root of generator j restricts to column j of the Cartan matrix
    # of H, and to charge 0 under the coweight of a Levi subgroup
    rows = [_coroot_sum(rs, terms) for terms in gens]
    want = list(r.hsys.C)  # a copy: the coweight's row is appended
    if r.coweight is not None:
        rows.append(r.coweight)
        want.append([0] * len(gens))
    for j, terms in enumerate(gens):
        col = [w[j] for w in want]
        for k, (_, b) in enumerate(terms):
            wb = rs.weight_of_root(b)
            got = [sum(h * w for h, w in zip(row, wb)) for row in rows]
            if got != col:
                raise LieError(f"generator {j + 1}: {b} restricts to {got}, not {col}")
            for _, c in terms[k + 1 :]:
                if rs.is_root(tuple(x - y for x, y in zip(b, c))):
                    raise LieError(f"generator {j + 1}: {b} - {c} is a root")
    return WeightImage(rs, rows)


def _build_record(at, ambient, name, lines):
    """The Embedding of the record whose ``embed`` line is line ``at``; a
    fault of the record names that line."""
    try:
        return Embedding(ambient, name, lines)
    except LieError as e:
        raise LieError(f"embeddings data line {at}: {name} in {ambient}: {e}") from None


def parse_embeddings(text: str):
    """Parse the embedding catalog file into Embedding objects (in order).

    Each record's directive lines are collected in one dict, under the
    keys that `Embedding` reads, and the record is built when the next
    ``embed`` line or the end of the file is reached: its faults are
    reported before any later line's.
    """
    records = []
    pairs = set()  # (G, H) of every record so far
    cur = None  # (embed line number, G, H name, directive dict) of the open record
    for lineno, head, rest in data_lines(text, "embeddings data line"):
        if head == "embed" and cur is not None:
            records.append(_build_record(*cur))
        try:
            if head == "embed":
                fields = rest.split()
                if len(fields) != 3 or fields[1] != "in":
                    raise LieError(f"bad embed line {rest!r}")
                ambient = simple_type(fields[2])
                pair = (str(ambient), str(TypeSpec.parse(fields[0])))
                if pair in pairs:
                    raise LieError(f"duplicate catalog entry {pair}")
                pairs.add(pair)
                cur = (lineno, ambient, fields[0], {})
                continue
            if cur is None:
                raise LieError(f"directive {head!r} outside a record")
            lines = cur[3]
            if head in ("root", "chev"):
                m = re.match(r"^([0-9]+)\s*=\s*(.+)$", rest)
                if not m:
                    raise LieError(f"bad {head} line {rest!r}")
                key, rest = (head, int(m.group(1))), m.group(2)
            elif head in ("kind", "node", "coweight"):
                key = (head,)
            else:
                raise LieError(f"unknown directive {head!r}")
            if key in lines:  # a second line would override the first
                raise LieError(f"repeated {' '.join(map(str, key))} line")
            if head == "kind":
                if rest not in KINDS:
                    raise LieError(f"unknown kind {rest!r}")
                lines[key] = rest
            elif head == "node":
                try:
                    lines[key] = int(rest)
                except ValueError:
                    raise LieError(f"expected an integer, got {rest!r}") from None
            elif head == "chev":  # signed terms +<r> or -<r>, split at spaces outside (...)
                lines[key] = [
                    (-1 if tok[0] == "-" else 1,
                     _parse_root(tok[1:] if tok[0] in "+-" else tok, cur[1].rank))
                    for tok in re.split(r" (?![^(]*\))", rest)
                ]
            else:  # root or coweight
                lines[key] = _parse_root(rest, cur[1].rank)
        except LieError as e:
            raise LieError(f"embeddings data line {lineno}: {e}") from None
    if cur is not None:
        records.append(_build_record(*cur))
    return records


class Catalog:
    def __init__(self, records):
        self.records = records
        self.by_key = {}
        self.by_g = {}
        for r in records:  # the parser rejects a second record of a pair
            self.by_key[(str(r.ambient), str(r.spec))] = r
            self.by_g.setdefault(str(r.ambient), []).append(r)

    def get(self, gname: str, hname: str) -> Embedding:
        """The entry for subgroup hname of gname; hname is read as a
        type, so d5xt1 names D5xT1."""
        key = (gname, str(TypeSpec.parse(hname)))
        if key not in self.by_key:
            raise LieError(f"no catalog entry for {hname} in {gname}")
        return self.by_key[key]

    def entries(self, gname: str):
        if gname not in self.by_g:
            raise LieError(f"no catalog entries for {gname}")
        return list(self.by_g[gname])


def data_dir_default():
    return str(importlib.resources.files("liebranch") / "data")


def resolve_data_dir(data_dir=None):
    """The data directory to read, the argument or else the packaged data,
    as an absolute path."""
    return os.path.abspath(data_dir_default() if data_dir is None else data_dir)


def data_lines(text, where):
    """``(line number, directive, rest)`` for each line of a data file, in
    the grammar both data files share: ``#`` starts a comment anywhere,
    any whitespace separates words, the directive is the first word, and
    the first line is the header ``format 1``, given once.  An error names
    its line as ``<where> <number>``, the parser's own prefix."""
    header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = " ".join(raw.split("#", 1)[0].split())
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if not header:
            if line != "format 1":
                raise LieError(
                    f"{where} {lineno}: expected the header 'format 1', got {line!r}"
                )
            header = True
        elif head == "format":
            raise LieError(f"{where} {lineno}: repeated format line")
        else:
            yield lineno, head, rest
    if not header:
        raise LieError(f"{where} 1: expected the header 'format 1'")


def read_data_file(data_dir, name):
    """The text of the data file ``name`` in ``data_dir``."""
    try:
        with open(os.path.join(data_dir, name), encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise LieError(f"cannot read {name}: {e}") from None


def load_catalog(data_dir=None) -> Catalog:
    """The catalog of the resolved data directory, parsed once per path."""
    return _load_catalog_at(resolve_data_dir(data_dir))


@lru_cache(maxsize=None)
def _load_catalog_at(data_dir) -> Catalog:
    return Catalog(parse_embeddings(read_data_file(data_dir, "embeddings.txt")))
