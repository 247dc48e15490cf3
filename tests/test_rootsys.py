import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liebranch.characters import dominant_character
from liebranch.embeddings import load_catalog, subsystem_simple_images
from liebranch.rootsys import (
    LieError,
    _coroot,
    RootSystem,
    SimpleType,
    TypeSpec,
    WeightImage,
    cartan_data,
    diagram_components,
    format_weight,
    generate_positive_roots,
    match_cartan,
    parse_weight,
    root_system,
)
from oracles import (
    dual_weight,
    fundamental,
    orbit_images,
    orbit_layers,
    orbit_points,
    restrict_weight,
)

ALL_TYPES = [
    SimpleType("A", 1),
    SimpleType("A", 2),
    SimpleType("A", 5),
    SimpleType("A", 7),
    SimpleType("B", 2),
    SimpleType("B", 4),
    SimpleType("C", 3),
    SimpleType("C", 4),
    SimpleType("D", 4),
    SimpleType("D", 5),
    SimpleType("D", 6),
    SimpleType("E", 6),
    SimpleType("E", 7),
    SimpleType("E", 8),
    SimpleType("F", 4),
    SimpleType("G", 2),
]


def test_invalid_types_rejected():
    for fam, n in [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("X", 2)]:
        with pytest.raises(LieError):
            SimpleType(fam, n)


def expected_pos_count(t):
    n = t.rank
    if t.family == "A":
        return n * (n + 1) // 2
    if t.family in ("B", "C"):
        return n * n
    if t.family == "D":
        return n * (n - 1)
    if t.family == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    return 24 if t.family == "F" else 6


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_positive_root_counts(t):
    rs = root_system(t)
    assert rs.n_pos == expected_pos_count(t)
    assert len(set(rs.positive_roots)) == rs.n_pos


@pytest.mark.parametrize("t", ALL_TYPES + [TypeSpec.parse("G2xC3")], ids=str)
def test_coroots_are_the_roots_of_the_dual_system(t):
    # the positive roots of the transposed Cartan matrix, by the raising
    # closure, against the coroots that _coroot reads off d
    rs = root_system(t)
    dual = generate_positive_roots([list(col) for col in zip(*rs.C)])
    assert sorted(dual) == sorted(c for c, _ in rs.mirrors)


def test_highest_roots():
    assert root_system(SimpleType("G", 2)).highest_root == (3, 2)
    assert root_system(SimpleType("F", 4)).highest_root == (2, 3, 4, 2)
    assert root_system(SimpleType("E", 6)).highest_root == (1, 2, 2, 3, 2, 1)
    assert root_system(SimpleType("E", 7)).highest_root == (2, 2, 3, 4, 3, 2, 1)
    assert root_system(SimpleType("E", 8)).highest_root == (2, 3, 4, 6, 5, 4, 3, 2)
    assert root_system(SimpleType("B", 4)).highest_root == (1, 2, 2, 2)
    assert root_system(SimpleType("C", 4)).highest_root == (2, 2, 2, 1)
    assert root_system(SimpleType("D", 5)).highest_root == (1, 2, 2, 1, 1)


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_weyl_order_vs_orbit_enumeration(t):
    # |W| = sum over the orbit of rho of 1 (rho is regular)
    rs = root_system(t)
    if rs.weyl_order() > 500000:
        pytest.skip("orbit too large to enumerate here")
    count = sum(1 for _ in orbit_points(rs, rs.rho))
    assert count == rs.weyl_order()


def test_weyl_orders_fixed_values():
    vals = {"G2": 12, "F4": 1152, "E6": 51840, "E7": 2903040, "E8": 696729600}
    for name, order in vals.items():
        t = SimpleType(name[0], int(name[1]))
        assert root_system(t).weyl_order() == order


WEYL_DIMS = [
    ("G2", (1, 0), 7),
    ("G2", (0, 1), 14),
    ("F4", (0, 0, 0, 1), 26),
    ("F4", (1, 0, 0, 0), 52),
    ("F4", (0, 0, 1, 0), 273),
    ("F4", (0, 1, 0, 0), 1274),
    ("E6", (1, 0, 0, 0, 0, 0), 27),
    ("E6", (0, 1, 0, 0, 0, 0), 78),
    ("E6", (0, 0, 1, 0, 0, 0), 351),
    ("E7", (0, 0, 0, 0, 0, 0, 1), 56),
    ("E7", (1, 0, 0, 0, 0, 0, 0), 133),
    ("E7", (0, 1, 0, 0, 0, 0, 0), 912),
    ("E8", (0, 0, 0, 0, 0, 0, 0, 1), 248),
    ("B4", (1, 0, 0, 0), 9),
    ("B4", (0, 1, 0, 0), 36),
    ("B4", (0, 0, 1, 0), 84),
    ("B4", (0, 0, 0, 1), 16),
    ("C4", (1, 0, 0, 0), 8),
    ("C4", (0, 1, 0, 0), 27),
    ("C4", (0, 0, 1, 0), 48),
    ("C4", (0, 0, 0, 1), 42),
    ("A5", (1, 0, 0, 0, 0), 6),
    ("A5", (0, 1, 0, 0, 0), 15),
    ("A5", (0, 0, 1, 0, 0), 20),
    ("D5", (1, 0, 0, 0, 0), 10),
    ("D5", (0, 1, 0, 0, 0), 45),
    ("D5", (0, 0, 1, 0, 0), 120),
    ("D5", (0, 0, 0, 1, 0), 16),
    ("D5", (0, 0, 0, 0, 1), 16),
]


@pytest.mark.parametrize("name,lam,dim", WEYL_DIMS, ids=lambda v: str(v))
def test_weyl_dimension_oracles(name, lam, dim):
    t = SimpleType(name[0], int(name[1]))
    assert root_system(t).weyl_dimension(lam) == dim


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_adjoint_dimension(t):
    rs = root_system(t)
    adj = rs.weight_of_root(rs.highest_root)
    assert rs.weyl_dimension(adj) == 2 * rs.n_pos + rs.rank


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_root_norms_and_coroots(t):
    rs = root_system(t)
    for a in rs.positive_roots:
        n2 = rs.norm2(a)
        assert n2 in (2, 4, 6)
        hv = rs.coroot(a)
        wa = rs.weight_of_root(a)
        # <alpha, alpha^vee> = 2 in the weight/coroot pairing
        assert sum(h * w for h, w in zip(hv, wa)) == 2
        # reflection of a weight in alpha via the coroot stays integral
        mu = rs.rho
        pairing = sum(h * m for h, m in zip(hv, mu))
        assert isinstance(pairing, int)


def test_coroot_rejects_an_odd_squared_length():
    # (a, a) = 1 for d = [1], a = alpha_1 and a weight of 1: the halving
    # would floor without the check
    with pytest.raises(LieError, match="odd squared length"):
        _coroot([1], (1,), (1,))


def _catalog_types():
    """Every simple type the catalog names: ambients and subgroup factors."""
    out = set()
    for r in load_catalog().records:
        out.add(r.ambient)
        out.update(r.spec.factors)
    return sorted(out)


@pytest.mark.parametrize("t", _catalog_types(), ids=str)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_root_arithmetic_is_the_cartan_matrix(t, data):
    # any integer tuples, not only roots
    rs = root_system(t)
    n = rs.rank
    coords = st.tuples(*[st.integers(min_value=-9, max_value=9)] * n)
    a, b = data.draw(coords), data.draw(coords)
    wb = [sum(rs.C[i][j] * b[j] for j in range(n)) for i in range(n)]
    assert rs.weight_of_root(b) == tuple(wb)
    assert rs.inner_rr(a, b) == sum(rs.d[k] * a[k] * wb[k] for k in range(n))


@pytest.mark.parametrize("t", _catalog_types(), ids=str)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_coroot_chain_pairings_are_the_coroot_dot_products(t, data):
    # any integer weight, not only orbit points
    rs = root_system(t)
    n = rs.rank
    order, steps, weights = rs.coroot_chain
    assert sorted(order) == list(range(rs.n_pos))
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    assert [rs.positive_roots[k] for k in order[:n]] == units
    assert len(steps) == rs.n_pos - n
    assert weights == [rs.weight_of_root(rs.positive_roots[k]) for k in order]
    x = data.draw(st.tuples(*[st.integers(min_value=-9, max_value=9)] * n))
    want = [
        sum(c * v for c, v in zip(rs.coroot(rs.positive_roots[k]), x)) for k in order
    ]
    assert rs.coroot_pairings(x) == want


# sha256 of repr([subsystem_simple_images(g, node) for every node])
SUBSYSTEM_IMAGES_SHA256 = {
    "G2": "b64c63cd99f16311df4cdf97a45f83c1677fa6a47636c4fdeacf7172ce3516aa",
    "F4": "984884423b0e8a72556480fc3924894962cfcdd1193fb4d37928c862667fcf2b",
    "E6": "40fb9138956a280e8f926c431c288620d2daf79763cc8de0aa2513be3ab0ef58",
    "E7": "19cfe3eddb9582e2323a8f60639e890dc145ecd6a1cb0b0947f4f3df8e77ca88",
    "E8": "9e9abc88f001b10faa3c50543d9257e3a2d66bf065e792115474e3035855523c",
}


@pytest.mark.parametrize("name", list(SUBSYSTEM_IMAGES_SHA256))
def test_subsystem_simple_images_digest(name):
    t = SimpleType(name[0], int(name[1]))
    got = [subsystem_simple_images(t, node) for node in range(1, t.rank + 1)]
    digest = hashlib.sha256(repr(got).encode()).hexdigest()
    assert digest == SUBSYSTEM_IMAGES_SHA256[name]


def test_dual_involutions():
    e6 = root_system(SimpleType("E", 6))
    assert [e6.dual_node(i) for i in range(1, 7)] == [6, 2, 5, 4, 3, 1]
    a5 = root_system(SimpleType("A", 5))
    assert [a5.dual_node(i) for i in range(1, 6)] == [5, 4, 3, 2, 1]
    d5 = root_system(SimpleType("D", 5))
    assert [d5.dual_node(i) for i in range(1, 6)] == [1, 2, 3, 5, 4]
    d6 = root_system(SimpleType("D", 6))
    assert [d6.dual_node(i) for i in range(1, 7)] == [1, 2, 3, 4, 5, 6]
    e7 = root_system(SimpleType("E", 7))
    assert all(e7.dual_node(i) == i for i in range(1, 8))
    # a product: each factor's involution, on its own block of nodes
    a5a1 = RootSystem(TypeSpec.parse("A5xA1"))
    assert [a5a1.dual_node(i) for i in range(1, 7)] == [5, 4, 3, 2, 1, 6]
    d5a1 = RootSystem(TypeSpec.parse("D5xA1"))
    assert [d5a1.dual_node(i) for i in range(1, 7)] == [1, 2, 3, 5, 4, 6]


def tabulated_dual_permutation(t):
    """-w0 on the 0-based nodes of a simple type, as tabulated in Bourbaki,
    Lie Groups and Lie Algebras, Ch. VI, Plates I-IX: the reference."""
    n, fam = t.rank, t.family
    perm = list(range(n))
    if fam == "A":
        perm.reverse()
    elif fam == "D" and n % 2 == 1:
        perm[n - 2], perm[n - 1] = perm[n - 1], perm[n - 2]
    elif fam == "E" and n == 6:
        perm = [5, 1, 4, 3, 2, 0]
    return perm


DUAL_TYPES = [
    SimpleType(fam, n)
    for fam, ranks in (
        ("A", range(1, 9)),
        ("B", range(2, 9)),
        ("C", range(2, 9)),
        ("D", range(3, 9)),
        ("E", range(6, 9)),
        ("F", [4]),
        ("G", [2]),
    )
    for n in ranks
] + sorted({r.spec for r in load_catalog().records if r.spec.factors}, key=str)


@pytest.mark.parametrize("t", DUAL_TYPES, ids=str)
def test_dual_perm_is_the_tabulated_minus_w0(t):
    rs = root_system(t)
    want = []
    for f in rs.factors:
        want += [len(want) + p for p in tabulated_dual_permutation(f)]
    perm = rs.dual_perm
    assert perm == want
    assert [perm[p] for p in perm] == list(range(rs.rank))
    assert all(
        rs.C[perm[i]][perm[j]] == rs.C[i][j]
        for i in range(rs.rank)
        for j in range(rs.rank)
    )


def test_dual_weight_preserves_dimension():
    e6 = root_system(SimpleType("E", 6))
    lam = (2, 0, 1, 0, 0, 3)
    assert e6.weyl_dimension(lam) == e6.weyl_dimension(dual_weight(e6, lam))
    assert dual_weight(e6, dual_weight(e6, lam)) == lam


ORBIT_SIZES = [
    ("G2", (1, 0), 6),
    ("G2", (0, 1), 6),
    ("G2", (1, 1), 12),
    ("A5", (1, 0, 0, 0, 0), 6),
    ("A5", (0, 0, 1, 0, 0), 20),
    ("F4", (0, 0, 0, 1), 24),
    ("F4", (1, 0, 0, 0), 24),
    ("E6", (1, 0, 0, 0, 0, 0), 27),
    ("E7", (0, 0, 0, 0, 0, 0, 1), 56),
    ("E8", (0, 0, 0, 0, 0, 0, 0, 1), 240),
]


@pytest.mark.parametrize("name,lam,size", ORBIT_SIZES, ids=lambda v: str(v))
def test_orbit_sizes(name, lam, size):
    t = SimpleType(name[0], int(name[1]))
    rs = root_system(t)
    assert rs.orbit_size(lam) == size
    assert sum(1 for _ in orbit_points(rs, lam)) == size


def _equal_rank_entries(groups):
    """Catalog entries whose weight restriction (with the torus charge) is
    injective: as many restriction rows plus coweight as the rank of G."""
    out = []
    for g in groups:
        for emb in load_catalog().entries(g):
            if emb.kind == "typeonly":
                continue
            n = len(emb.weight_image().rows[: emb.rank_ss]) + (emb.coweight is not None)
            if n == emb.ambient.rank:
                out.append(emb)
    return out


CONE_ENTRIES = _equal_rank_entries(("G2", "F4", "E6"))


def test_equal_rank_entries_are_the_root_subgroups():
    roots = [
        e for g in ("G2", "F4", "E6") for e in load_catalog().entries(g)
        if e.kind in ("subsystem", "levi")
    ]
    assert CONE_ENTRIES == roots
    assert len(roots) == 9


def _check_cone_walk(rs, lam, cone, orbit):
    """The cone walk yields the cone-filtered orbit, each point once."""
    checks = [rs.coroot(b) for b in cone]
    walked = list(orbit_points(rs, lam, cone))
    assert len(set(walked)) == len(walked), (lam, cone)
    full = {
        x for x in orbit
        if all(sum(c * v for c, v in zip(cv, x)) >= 0 for cv in checks)
    }
    assert set(walked) == full, (lam, cone)
    return walked


@pytest.mark.parametrize(
    "emb", CONE_ENTRIES, ids=lambda e: f"{e.ambient}>{e.name}"
)
def test_cone_walk_is_the_filtered_orbit(emb):
    rs = root_system(emb.ambient)
    fundamentals = [fundamental(rs, i) for i in range(1, rs.rank + 1)]
    for lam in fundamentals + [rs.rho]:
        walked = _check_cone_walk(rs, lam, emb.simple_images, orbit_points(rs, lam))
    # a regular orbit meets the cone once per coset of the subgroup Weyl
    # group: the minimal coset representatives of W_G / W_H
    assert len(walked) == rs.weyl_order() // emb.hsys.weyl_order()


@pytest.mark.parametrize("name", ["G2", "F4", "E6"])
def test_cone_walk_enters_the_cone_first(name):
    # the extended diagram without one simple root: a cone containing the
    # lowest root, which dominant weights other than 0 lie outside of
    rs = root_system(SimpleType(name[0], int(name[1])))
    lowest = tuple(-x for x in rs.highest_root)
    simples = [tuple(int(j == i) for j in range(rs.rank)) for i in range(rs.rank)]
    fundamentals = [fundamental(rs, i) for i in range(1, rs.rank + 1)]
    for lam in fundamentals + [rs.rho]:
        orbit = list(orbit_points(rs, lam))
        for drop in range(rs.rank):
            cone = [lowest] + simples[:drop] + simples[drop + 1:]
            _check_cone_walk(rs, lam, cone, orbit)


def _direct_image(emb, x):
    ss, q = restrict_weight(emb, x)
    return ss if q is None else ss + (q,)


IMAGE_ENTRIES = [
    e for g in ("G2", "F4", "E6", "E7") for e in load_catalog().entries(g)
    if e.kind != "typeonly"
]


@pytest.mark.parametrize("emb", IMAGE_ENTRIES, ids=lambda e: f"{e.ambient}>{e.name}")
def test_carried_image_is_the_restriction_of_each_point(emb):
    # the walks apply the restriction to the start point only and carry it
    # along; the oracle applies it to every point.  Root subgroups walk
    # their cone in production; the folded entries' full-orbit walk is
    # the oracle `orbit_images`, which `WeightImage.ball` replaced
    rs = root_system(emb.ambient)
    image = emb.weight_image()
    cone = emb.simple_images or []
    assert image.rows[: len(cone)] == [rs.coroot(b) for b in cone]
    weights = [fundamental(rs, i) for i in range(1, rs.rank + 1)]
    if rs.rank < 6:
        weights.append(rs.rho)
    for lam in weights:
        points = list(orbit_points(rs, lam, cone))
        if cone:
            got = Counter(rs.weyl_orbit(lam, image, cone))
            # the walk stays in the cone, so restriction keeps every image
            for img in got:
                assert min(img[: len(cone)]) >= 0, (lam, img)
        else:
            got = Counter(img for _, img in orbit_images(rs, lam, image))
        assert got == Counter(_direct_image(emb, x) for x in points), lam
        for x, img in orbit_images(rs, lam, image):
            assert img == _direct_image(emb, x), (lam, x)


def test_cone_walk_wants_a_dominant_weight():
    emb = load_catalog().get("G2", "A2")
    rs = root_system(emb.ambient)
    with pytest.raises(LieError):
        list(orbit_points(rs, (-1, 1), emb.simple_images))
    with pytest.raises(LieError):
        list(rs.weyl_orbit((-1, 1), emb.weight_image(), emb.simple_images))
    # a weight of the wrong length
    emb = load_catalog().get("E6", "A5xA1")
    rs = root_system(emb.ambient)
    for lam in [(1, 0), (0,) * 6 + (1,)]:
        with pytest.raises(LieError):
            list(rs.weyl_orbit(lam, emb.weight_image(), emb.simple_images))


def _exact_rank_and_inverse(rows):
    """(rank, inverse or None) of an integer matrix, by Gauss-Jordan over
    Q on [rows | I]."""
    n = len(rows[0])
    m = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(len(rows))]
         for i, row in enumerate(rows)]
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        m[rank] = [v / m[rank][col] for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    square = rank == n == len(rows)
    return rank, [row[n:] for row in m] if square else None


BALL_TYPES = [SimpleType("A", 2), SimpleType("B", 3), SimpleType("G", 2)]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), ti=st.integers(min_value=0, max_value=len(BALL_TYPES) - 1))
def test_ball_is_the_filtered_lattice_ball(data, ti):
    # brute force: every x with |x_i| <= sqrt(Q(lam)) (the simple coroots
    # are among the positive ones, so Q(x) >= sum x_i^2), kept when it is
    # in the coset of lam, in the ball and has A x >= 0
    rs = root_system(BALL_TYPES[ti])
    n = rs.rank
    r = data.draw(st.integers(min_value=1, max_value=n - 1))
    entry = st.integers(min_value=-2, max_value=2)
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(r)]
    assume(_exact_rank_and_inverse(rows)[0] == r)
    coeff = st.integers(min_value=0, max_value=2 if n == 2 else 1)
    lam = tuple(data.draw(coeff) for _ in range(n))
    image = WeightImage(rs, rows)
    got = image.ball(lam)
    assert len(set(got)) == len(got)
    top = rs.qnorm(lam)
    s = math.isqrt(top)
    _, inv = _exact_rank_and_inverse(rs.C)
    want = []
    for x in itertools.product(range(-s, s + 1), repeat=n):
        v = [a - b for a, b in zip(lam, x)]
        in_coset = all(sum(map(mul, row, v)).denominator == 1 for row in inv)
        if in_coset and rs.qnorm(x) <= top and min(image(x)) >= 0:
            want.append((image(x), x))
    assert sorted(got) == sorted(want)


def test_ball_wants_independent_rows():
    rs = root_system(SimpleType("B", 3))
    with pytest.raises(LieError):
        WeightImage(rs, [(1, 0, 1), (2, 0, 2)]).ball((1, 0, 0))


def test_ball_on_the_folded_entries_keeps_the_dominant_images_of_the_orbits():
    # every weight of V(lam) with a dominant image, from the carried
    # full-orbit walk of each dominant weight, is a point of the ball
    cat = load_catalog()
    for g, h, lam in [
        ("E6", "F4", (0, 0, 0, 0, 0, 2)),
        ("E6", "C4", (0, 1, 0, 0, 0, 0)),
        ("E7", "A1xF4", (0, 0, 0, 0, 0, 0, 2)),
    ]:
        emb = cat.get(g, h)
        rs = root_system(emb.ambient)
        image = emb.weight_image()
        ball = image.ball(lam)
        weights = {
            x: img
            for mu in dominant_character(emb.ambient, lam)
            for x, img in orbit_images(rs, mu, image)
            if min(img) >= 0
        }
        got = {x: img for img, x in ball if x in weights}
        assert got == weights, (g, h)
        # and the ball holds nothing else of the coset below lam
        top = rs.qnorm(lam)
        assert all(rs.qnorm(x) <= top and min(img) >= 0 for img, x in ball)


def test_root_system_is_one_per_type():
    # a one-factor spec without a torus is its simple type, so the
    # character memos keyed by the root system are shared
    for name in ("B4", "E6", "G2", "A1"):
        spec = TypeSpec.parse(name)
        t = spec.factors[0]
        assert root_system(spec) is root_system(t)
    assert root_system(TypeSpec.parse("A5xA1")) is root_system(TypeSpec.parse("A5xA1"))


SMALL_TYPES = [
    SimpleType("A", 2),
    SimpleType("A", 3),
    SimpleType("B", 2),
    SimpleType("B", 3),
    SimpleType("C", 3),
    SimpleType("D", 4),
    SimpleType("G", 2),
    SimpleType("F", 4),
]


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    ti=st.integers(min_value=0, max_value=len(SMALL_TYPES) - 1),
)
def test_orbit_layers_partition_orbit(data, ti):
    t = SMALL_TYPES[ti]
    rs = root_system(t)
    lam = tuple(
        data.draw(st.integers(min_value=0, max_value=2)) for _ in range(t.rank)
    )
    layers = list(orbit_layers(rs, lam))
    seen = set()
    for layer in layers:
        assert not (layer & seen)
        seen |= layer
    assert len(seen) == rs.orbit_size(lam)
    for w in seen:
        dom, _ = rs.dominant_signed(w)
        assert dom == lam
    # with a bound and cost 2 at every node (the height cut), each layer
    # keeps its points within the bound, and the walk stops at the first
    # layer that keeps none; its signs alternate from layer to layer, so
    # its runs of equal sign are its layers
    top = rs.height_key(lam)
    bound = data.draw(st.integers(min_value=-2, max_value=2 * top + 2))
    kept = [{w for w in layer if top - rs.height_key(w) <= bound} for layer in layers]
    while kept and not kept[-1]:
        kept.pop()
    walk = rs.weyl_orbit_signed(lam, bound, (2,) * rs.rank)
    runs = [{w for w, _ in run} for _, run in itertools.groupby(walk, key=lambda p: p[1])]
    assert runs == kept


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    ti=st.integers(min_value=0, max_value=len(SMALL_TYPES) - 1),
)
def test_dominant_signed_sign_is_orbit_depth_parity(data, ti):
    t = SMALL_TYPES[ti]
    rs = root_system(t)
    lam = tuple(
        data.draw(st.integers(min_value=0, max_value=2)) for _ in range(t.rank)
    )
    lam = tuple(x + 1 for x in lam)  # regular: depth parity is well defined
    for depth, layer in enumerate(orbit_layers(rs, lam)):
        for w in layer:
            _, sign = rs.dominant_signed(w)
            assert sign == (-1) ** depth


def test_component_identification_after_node_removal():
    cases = [
        ("E7", 1, ["D6"]),
        ("E7", 7, ["E6"]),
        ("E7", 2, ["A6"]),
        ("E6", 2, ["A5"]),
        ("E6", 4, ["A2", "A2", "A1"]),
        ("E8", 1, ["D7"]),
        ("E8", 5, ["A4", "A3"]),
        ("F4", 1, ["C3"]),
        ("F4", 4, ["B3"]),
        ("F4", 2, ["A1", "A2"]),
        ("G2", 1, ["A1"]),
        ("D5", 2, ["A1", "A3"]),
    ]
    for name, node, expected in cases:
        t = SimpleType(name[0], int(name[1]))
        C, _ = cartan_data(t)
        nodes = [i for i in range(t.rank) if i != node - 1]
        got = sorted(
            str(match_cartan([[C[i][j] for j in comp] for i in comp])[0])
            for comp in diagram_components(C, nodes)
        )
        assert got == sorted(expected), (name, node)


# every simple type of the catalog (ambient groups and factors of H), and
# types it lacks, among them B2 and C3, whose diagrams differ only by the
# direction of the double edge
MATCH_TYPES = sorted(
    {t for r in load_catalog().records for t in (r.ambient, *r.spec.factors)}
    | {SimpleType(f, n) for f, n in (("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2))}
)


def _relabel(C, perm):
    """The Cartan matrix with node i of C renamed perm[i]."""
    M = [[0] * len(C) for _ in C]
    for i, pi in enumerate(perm):
        for j, pj in enumerate(perm):
            M[pi][pj] = C[i][j]
    return M


@pytest.mark.parametrize("t", MATCH_TYPES, ids=str)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_match_cartan_undoes_a_relabelling(t, data):
    C, _ = cartan_data(t)
    M = _relabel(C, data.draw(st.permutations(range(t.rank))))
    got, order = match_cartan(M)
    assert got == t
    assert [[M[i][j] for j in order] for i in order] == C


def test_match_cartan_labels_of_shared_diagrams():
    # B2 = C2 and A3 = D3 as diagrams; the catalog names them B2 and A3
    for t, want in (("B2", "B2"), ("C2", "B2"), ("D3", "A3")):
        C, _ = cartan_data(SimpleType(t[0], int(t[1])))
        for perm in (range(len(C)), reversed(range(len(C)))):
            assert str(match_cartan(_relabel(C, list(perm)))[0]) == want, (t, perm)


def test_match_cartan_rejects_a_non_finite_type():
    # the affine diagram of type A2: a triangle
    with pytest.raises(LieError):
        match_cartan([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def test_typespec_parsing():
    ts = TypeSpec.parse("A5xA1")
    assert ts.factors == (SimpleType("A", 5), SimpleType("A", 1))
    assert ts.torus == 0
    ts = TypeSpec.parse("D5xT1")
    assert ts.factors == (SimpleType("D", 5),)
    assert ts.torus == 1
    assert str(ts) == "D5xT1"
    assert TypeSpec.parse("e6").factors == (SimpleType("E", 6),)
    for bad in ["X9", "E9", "B1", "", "A5x", "T"]:
        with pytest.raises(LieError):
            TypeSpec.parse(bad)


def test_typespec_rejects_torus_of_rank_zero():
    assert TypeSpec.parse("A2xT2").torus == 2
    for bad in ["A2xT0", "T0", "D5xT1xT0"]:
        with pytest.raises(LieError, match="torus factor needs rank at least 1"):
            TypeSpec.parse(bad)


def test_parse_weight():
    assert parse_weight("3w1+w2", 2, "w") == ((3, 1), None)
    assert parse_weight("2l3+l6", 6, "l") == ((0, 0, 2, 0, 0, 1), None)
    assert parse_weight("l1@-3", 2, "l") == ((1, 0), -3)
    assert parse_weight("0", 4, "w") == ((0, 0, 0, 0), None)
    assert parse_weight("0@2", 1, "l") == ((0,), 2)
    assert parse_weight("l1@+3", 2, "l") == ((1, 0), 3)
    for bad in ["w0", "w3", "3v1", "l1@x", "w1+l1", "w1@1_0", "w1@ 3", "w1@\u0663"]:
        with pytest.raises(LieError):
            parse_weight(bad, 2, "w")


def test_format_weight_roundtrip():
    assert format_weight((3, 1), "w") == "3w1+w2"
    assert format_weight((0, 0), "l") == "0"
    assert format_weight((1, 0), "l", charge=-3) == "l1@-3"
    mu, ch = parse_weight(format_weight((0, 2, 0, 1), "l", charge=5), 4, "l")
    assert mu == (0, 2, 0, 1) and ch == 5


def test_product_system_basics():
    ps = RootSystem(TypeSpec.parse("A5xA1"))
    assert ps.rank == 6
    mu = (1, 0, 0, 0, 0, 3)
    assert ps.split(mu) == [(1, 0, 0, 0, 0), (3,)]
    assert ps.weyl_dimension(mu) == 6 * 4
    assert ps.weyl_order() == 720 * 2
    # one simple reflection applied in each factor: signs multiply to +1
    dom, sign = ps.dominant_signed((-1, 2, 1, 1, 1, -2))
    assert dom == (1, 1, 1, 1, 1, 2)
    assert sign == 1


def factor_dominant_signed(ps, mu):
    """Dominant conjugate and sign of mu, factor by factor: the reference."""
    parts = [root_system(f).dominant_signed(p) for f, p in zip(ps.factors, ps.split(mu))]
    return sum((p for p, _ in parts), ()), math.prod(sign for _, sign in parts)


def factor_height_key(ps, mu):
    """height_key of mu, factor by factor: the reference."""
    return sum(root_system(f).height_key(p) for f, p in zip(ps.factors, ps.split(mu)))


def full_orbit_signed(ps, mu):
    """(point, sign) over the whole orbit of mu, factor by factor, with
    the sign of each factor's layer depth: the reference."""
    factors = [
        [(w, (-1) ** depth)
         for depth, layer in enumerate(orbit_layers(root_system(f), part))
         for w in layer]
        for f, part in zip(ps.factors, ps.split(mu))
    ]
    return sorted(
        (sum((w for w, _ in combo), ()), math.prod(s for _, s in combo))
        for combo in itertools.product(*factors)
    )


def test_product_orbit_signed_matches_sizes():
    ps = RootSystem(TypeSpec.parse("A2xA1"))
    mu = (1, 1, 2)
    pts = list(ps.weyl_orbit_signed(mu, 2 * ps.height_key(mu), (2,) * ps.rank))
    assert len(pts) == ps.orbit_size(mu) == 6 * 2
    assert len({w for w, _ in pts}) == len(pts)
    # signs: sum over orbit of sign equals 0 for a regular weight (pairing s_i)
    assert sum(s for _, s in pts) == 0
    assert sorted(pts) == full_orbit_signed(ps, mu)
    # weights of the wrong length, and one that is not dominant
    rs = root_system(SimpleType("E", 6))
    for mu in [(1, 0), (0,) * 7 + (1,), (-1, 0, 0, 0, 0, 1)]:
        with pytest.raises(LieError):
            list(rs.weyl_orbit_signed(mu, 10, (2,) * 6))


@settings(max_examples=40, deadline=None)
@given(
    spec=st.sampled_from(["A2xA1", "G2", "B3", "A1xA1xA2", "C3xA1", "D4"]),
    data=st.data(),
)
def test_product_orbit_signed_bound_filters_the_full_orbit(spec, data):
    ps = RootSystem(TypeSpec.parse(spec))
    mu = tuple(data.draw(st.integers(min_value=0, max_value=2)) for _ in range(ps.rank))
    full = full_orbit_signed(ps, mu)
    costs = (2,) * ps.rank  # the height cut
    top = 2 * ps.height_key(mu)
    assert sorted(ps.weyl_orbit_signed(mu, top, costs)) == full
    bound = data.draw(st.integers(min_value=-2, max_value=top + 2))
    want = [
        (w, s) for w, s in full
        if factor_height_key(ps, mu) - factor_height_key(ps, w) <= bound
    ]
    assert sorted(ps.weyl_orbit_signed(mu, bound, costs)) == want
    # the block-diagonal system against its factors, on any integer weight
    nu = tuple(data.draw(st.integers(min_value=-3, max_value=3)) for _ in range(ps.rank))
    assert ps.dominant_signed(nu) == factor_dominant_signed(ps, nu)
    assert ps.height_key(nu) == factor_height_key(ps, nu)


def test_height_key_positive_on_positive_roots():
    for t in ALL_TYPES:
        rs = root_system(t)
        for a in rs.positive_roots:
            assert rs.height_key(rs.weight_of_root(a)) > 0
        # on the highest root it equals 2h-2 with h the Coxeter number
        assert rs.height_key(rs.weight_of_root(rs.highest_root)) == 2 * (
            2 * rs.n_pos // rs.rank
        ) - 2


def _catalog_simple_types():
    types = set()
    for r in load_catalog().records:
        types.add(r.ambient)
        types.update(r.spec.factors)
    return sorted(types, key=str)


@pytest.mark.parametrize("t", _catalog_simple_types(), ids=str)
def test_height_key_is_an_int(t):
    rs = root_system(t)
    # twice the height on every positive root; the simple roots alone
    # pin the functional, since their weights are the columns of the
    # invertible Cartan matrix
    for a in rs.positive_roots:
        got = rs.height_key(rs.weight_of_root(a))
        assert type(got) is int and got == 2 * sum(a)


def test_product_system_is_the_block_diagonal_root_system():
    # assembled from the factors, it equals the root system generated
    # from its own Cartan matrix, with each coroot and weight recomputed
    for r in load_catalog().records:
        ps = r.hsys
        systems = [root_system(f) for f in ps.factors]
        for s, sl in zip(systems, ps.slices):
            assert [row[sl] for row in ps.C[sl]] == s.C
            assert ps.d[sl] == s.d
        assert sum(map(abs, itertools.chain(*ps.C))) == sum(
            sum(map(abs, itertools.chain(*s.C))) for s in systems
        )
        assert sorted(ps.positive_roots) == sorted(generate_positive_roots(ps.C))
        assert ps.mirrors == [(ps.coroot(a), ps.weight_of_root(a)) for a in ps.positive_roots]
        for a in ps.positive_roots:
            assert ps.height_key(ps.weight_of_root(a)) == 2 * sum(a)


def test_product_height_key_is_an_int():
    for r in load_catalog().records:
        got = r.hsys.height_key(tuple(range(1, r.rank_ss + 1)))
        assert type(got) is int
