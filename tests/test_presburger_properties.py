"""Hypothesis property tests for the integer-set core.

The set algebra must satisfy the standard lattice laws, and symbolic
enumeration must agree with brute-force evaluation of the constraints —
these invariants anchor every sharing-matrix number downstream.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.presburger.builders import box, interval, strided_interval
from repro.presburger.constraints import Constraint
from repro.presburger.maps import AffineMap
from repro.presburger.points import PointSet
from repro.presburger.terms import LinearExpr, var
from repro.procgraph.process import Process
from repro.programs.accesses import AffineAccess
from repro.programs.arrays import ArraySpec
from repro.programs.fragments import ProgramFragment
from repro.programs.loops import LoopNest

point_lists = st.lists(
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)), max_size=40
)


def ps(points) -> PointSet:
    return PointSet(list(points) or np.empty((0, 2), dtype=np.int64), dim=2)


class TestPointSetLaws:
    @given(point_lists, point_lists)
    def test_intersection_commutes(self, a, b):
        assert ps(a).intersect(ps(b)) == ps(b).intersect(ps(a))

    @given(point_lists, point_lists)
    def test_union_commutes(self, a, b):
        assert ps(a).union(ps(b)) == ps(b).union(ps(a))

    @given(point_lists, point_lists, point_lists)
    def test_union_associates(self, a, b, c):
        left = ps(a).union(ps(b)).union(ps(c))
        right = ps(a).union(ps(b).union(ps(c)))
        assert left == right

    @given(point_lists, point_lists)
    def test_intersection_is_subset_of_both(self, a, b):
        inter = ps(a).intersect(ps(b))
        for point in inter:
            assert point in ps(a)
            assert point in ps(b)

    @given(point_lists, point_lists)
    def test_difference_disjoint_from_subtrahend(self, a, b):
        diff = ps(a).difference(ps(b))
        assert diff.intersect(ps(b)).is_empty()

    @given(point_lists, point_lists)
    def test_partition_identity(self, a, b):
        """|A| = |A∩B| + |A\\B|."""
        set_a, set_b = ps(a), ps(b)
        assert len(set_a) == set_a.intersection_size(set_b) + len(
            set_a.difference(set_b)
        )

    @given(point_lists)
    def test_self_intersection_is_identity(self, a):
        assert ps(a).intersect(ps(a)) == ps(a)

    @given(point_lists, point_lists)
    def test_inclusion_exclusion(self, a, b):
        set_a, set_b = ps(a), ps(b)
        assert len(set_a.union(set_b)) == (
            len(set_a) + len(set_b) - set_a.intersection_size(set_b)
        )


class TestEnumerationAgreesWithBruteForce:
    @given(
        st.integers(-10, 10),
        st.integers(0, 12),
        st.integers(1, 5),
        st.integers(0, 4),
    )
    def test_strided_interval_matches_python_range(self, low, width, stride, phase):
        high = low + width + 1  # builders require non-empty ranges
        s = strided_interval("i", low, high, stride, phase)
        expected = [i for i in range(low, high) if i % stride == phase % stride]
        assert s.enumerate().flat().tolist() == expected

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(-8, 8))
    def test_halfplane_filter_matches_brute_force(self, w1, w2, bound):
        s = box({"i": (0, w1 + 1), "j": (0, w2 + 1)}).with_constraints(
            Constraint.le(var("i") + var("j"), bound)
        )
        expected = [
            (i, j)
            for i in range(w1 + 1)
            for j in range(w2 + 1)
            if i + j <= bound
        ]
        assert [tuple(p) for p in s.enumerate()] == expected


class TestAffineMapProperties:
    @given(
        point_lists,
        st.integers(-5, 5),
        st.integers(-5, 5),
        st.integers(-20, 20),
    )
    def test_image_matches_pointwise_application(self, points, c1, c2, c0):
        m = AffineMap(
            ("x", "y"), [LinearExpr({"x": c1, "y": c2}, c0)]
        )
        domain = ps(points)
        image = m.image(domain)
        expected = sorted({c1 * x + c2 * y + c0 for x, y in domain})
        assert image.flat().tolist() == expected

    @given(st.integers(1, 20), st.integers(1, 10))
    def test_injective_map_preserves_cardinality(self, width, stride):
        domain = interval("i", 0, width)
        m = AffineMap(("i",), [var("i") * stride + 3])
        assert len(m.image(domain)) == width


@settings(max_examples=25)
@given(
    st.integers(0, 5),
    st.integers(1, 8),
    st.integers(1, 8),
)
def test_block_overlap_matches_closed_form(start, len_a, len_b):
    """Intersecting two integer intervals equals the closed-form overlap."""
    a = interval("i", 0, len_a)
    b = interval("i", start, start + len_b)
    expected = max(0, min(len_a, start + len_b) - max(0, start))
    assert a.intersect(b).count() == expected


# -- oracle: PointSet against Python sets of tuples ---------------------------

#: Origins that put coordinates near zero and near both ends of int64.
ORIGINS = (0, -(2**62), 2**62 - 64)


@st.composite
def operand_pairs(draw):
    """Two point lists of one dimension whose bounding boxes are disjoint,
    nested, offset or unrelated; duplicates and any order included."""
    dim = draw(st.integers(1, 3))
    origin = draw(st.sampled_from(ORIGINS))
    coord = st.integers(-6, 6).map(lambda v: origin + v)
    point = st.tuples(*[coord] * dim)
    a = draw(st.lists(point, max_size=30))
    relation = draw(st.sampled_from(("disjoint", "nested", "offset", "unrelated")))
    if relation == "nested" and a:
        b = draw(st.lists(st.sampled_from(a), max_size=30))
    elif relation in ("disjoint", "offset"):
        span = 100 if relation == "disjoint" else 3
        shift = draw(st.tuples(*[st.integers(-span, span)] * dim))
        if relation == "disjoint":
            shift = (span,) + shift[1:]
        b = [tuple(x + s for x, s in zip(p, shift)) for p in a]
        b += draw(st.lists(point, max_size=5))
    else:
        b = draw(st.lists(point, max_size=30))
    b = draw(st.permutations(b))
    return dim, a, b


def as_set(points, dim) -> PointSet:
    return PointSet(points, dim=dim) if points else PointSet.empty(dim)


def expected(points) -> list[tuple[int, ...]]:
    return sorted(set(points))


class TestPointSetOracle:
    @given(operand_pairs())
    def test_construction(self, case):
        """Canonical order, membership, equality and hash, whatever the
        input's order and duplicates."""
        dim, a, b = case
        set_a = as_set(a, dim)
        assert list(set_a) == expected(a)
        assert set_a.points.shape == (len(set(a)), dim)
        assert set_a.points.dtype == np.int64
        for point in set(a) | set(b):
            assert (point in set_a) == (point in set(a))
        again = as_set(list(reversed(a)) + a[::2], dim)
        assert set_a == again
        assert hash(set_a) == hash(again)
        assert (set_a == as_set(b, dim)) == (set(a) == set(b))
        values = [p[0] for p in a]
        assert PointSet.from_flat(values) == as_set([(v,) for v in values], 1)

    @given(operand_pairs(), st.lists(st.integers(0, 2), max_size=4))
    def test_set_algebra(self, case, extra):
        dim, a, b = case
        set_a, set_b = as_set(a, dim), as_set(b, dim)
        assert list(set_a.intersect(set_b)) == expected(set(a) & set(b))
        assert list(set_a.union(set_b)) == expected(set(a) | set(b))
        assert list(set_a.difference(set_b)) == expected(set(a) - set(b))
        assert list(set_b.difference(set_a)) == expected(set(b) - set(a))
        assert set_a.intersection_size(set_b) == len(set(a) & set(b))
        assert set_b.intersection_size(set_a) == len(set(a) & set(b))
        operands = [a, b] + [a[k::3] for k in extra]
        merged = PointSet.union_all([as_set(points, dim) for points in operands])
        assert list(merged) == expected(p for points in operands for p in points)


@st.composite
def basic_sets(draw):
    """A box of 1-3 variables (negative bounds included) cut by random
    half-planes and an optional modular constraint."""
    dim = draw(st.integers(1, 3))
    names = ("i", "j", "k")[:dim]
    bounds = {}
    for name in names:
        low = draw(st.integers(-6, 4))
        bounds[name] = (low, low + draw(st.integers(1, 6)))
    result = box(bounds)
    for _ in range(draw(st.integers(0, 2))):
        coeffs = {name: draw(st.integers(-3, 3)) for name in names}
        result = result.with_constraints(
            Constraint.le(LinearExpr(coeffs, 0), draw(st.integers(-8, 8)))
        )
    if draw(st.booleans()):
        result = result.with_constraints(
            Constraint.mod(var(names[0]) + var(names[-1]), draw(st.integers(2, 3)))
        )
    return result, bounds


class TestEnumerationIsCanonical:
    @given(basic_sets())
    def test_enumerate_equals_checked_construction(self, case):
        """The grid adopted without sorting is what the checking
        constructor builds from the same rows, and the brute force."""
        basic, bounds = case
        enumerated = basic.enumerate()
        rows = [
            p
            for p in itertools.product(*(range(lo, hi) for lo, hi in bounds.values()))
            if basic.contains(p)
        ]
        assert enumerated == as_set(rows, basic.dim)
        assert enumerated == as_set(enumerated.points.copy().tolist(), basic.dim)
        assert list(enumerated) == rows


# -- oracle: DS sets from the trace's offset columns --------------------------


@st.composite
def fragments(draw):
    """A 1-2 deep nest with 2-4 accesses to one array (zero and negative
    coefficients, so offsets repeat and arrive unsorted) plus one to a
    second array, restricted to a random sub-space."""
    depth = draw(st.integers(1, 2))
    names = ("i", "j")[:depth]
    nest = LoopNest([(name, 0, draw(st.integers(1, 6))) for name in names])
    shared = ArraySpec("A", (64,))
    other = ArraySpec("B", (8, 8))
    accesses = []
    for _ in range(draw(st.integers(2, 4))):
        coeffs = {name: draw(st.integers(-3, 3)) for name in names}
        accesses.append(
            AffineAccess(
                shared,
                [LinearExpr(coeffs, draw(st.integers(-4, 20)))],
                is_write=draw(st.booleans()),
            )
        )
    accesses.append(AffineAccess(other, [var(names[0]), var(names[-1]) * 2 - 1]))
    fragment = ProgramFragment("f", nest, draw(st.permutations(accesses)))
    phase = draw(st.integers(0, 1))
    piece = fragment.restrict(
        nest.space().with_constraints(Constraint.mod(var(names[-1]), 2, phase)),
        label="odd" if phase else "even",
    )
    return fragment, draw(st.sampled_from((fragment.whole(), piece)))


class TestDataSetsFromOffsetColumns:
    @settings(max_examples=60)
    @given(fragments())
    def test_data_sets_equal_access_map_images(self, case):
        fragment, piece = case
        loop_vars = fragment.nest.variables
        points = piece.iteration_points()
        data_sets = piece.data_sets()
        assert sorted(data_sets) == sorted(fragment.arrays)
        for name, footprint in data_sets.items():
            images = [
                access.access_map(loop_vars).image(points)
                for access in fragment.accesses
                if access.array.name == name
            ]
            folded = images[0]
            for image in images[1:]:
                folded = folded.union(image)
            assert footprint == folded
            assert footprint.flat().tolist() == sorted(
                {
                    access.access_map(loop_vars).apply(point)[0]
                    for access in fragment.accesses
                    if access.array.name == name
                    for point in points
                }
            )

    @settings(max_examples=30)
    @given(fragments())
    def test_process_data_sets_union_its_pieces(self, case):
        fragment, piece = case
        whole = fragment.whole()
        process = Process("p", "T", [piece, whole])
        for name, footprint in process.data_sets().items():
            assert footprint == piece.data_set(name).union(whole.data_set(name))
