"""Hypothesis property tests for the integer-set core.

The set algebra must satisfy the standard lattice laws, and symbolic
enumeration must agree with brute-force evaluation of the constraints —
these invariants anchor every sharing-matrix number downstream.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.presburger.builders import box, interval, strided_interval
from repro.errors import ValidationError
from repro.presburger.constraints import Constraint
from repro.presburger.maps import AffineMap
from repro.presburger.points import PointSet
from repro.presburger.sets import BasicSet
from repro.presburger.terms import LinearExpr, const, var
from repro.procgraph.graph import ExtendedProcessGraph
from repro.procgraph.process import Process
from repro.programs.accesses import AffineAccess
from repro.programs.arrays import ArraySpec
from repro.programs.fragments import ProgramFragment
from repro.programs.loops import LoopNest
from repro.programs.partition import block_partition, cyclic_partition
from repro.sched.base import default_layout
from repro.sim.config import MachineConfig
from repro.sim.trace import build_trace
from repro.workloads.suite import SUITE

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


# -- oracle: grounding against a brute-force scan -----------------------------


class TestExactBounds:
    """Bounds are exact integers at any magnitude; floats would round them."""

    def test_single_variable_past_2_53(self):
        low = 2**60 + 200
        s = box({"i": (low, low + 3)})
        assert s.infer_bounds() == {"i": (low, low + 2)}
        assert s.count() == 3
        assert s.enumerate().flat().tolist() == [low, low + 1, low + 2]

    def test_two_variables_near_minus_2_62(self):
        s = box({"i": (-(2**62), -(2**62) + 4), "j": (0, 2)})
        assert s.infer_bounds() == {"i": (-(2**62), -(2**62) + 3), "j": (0, 1)}
        assert s.count() == 8

    def test_multi_variable_propagation_past_2_53(self):
        # j = i + 5 with i in [2**61, 2**61 + 3): j's range is exact.
        low = 2**61
        s = BasicSet(
            ("i", "j"),
            [
                Constraint.ge(var("i"), low),
                Constraint.lt(var("i"), low + 3),
                Constraint.eq(var("j"), var("i") + 5),
            ],
        )
        assert s.infer_bounds() == {"i": (low, low + 2), "j": (low + 5, low + 7)}
        assert [tuple(p) for p in s.enumerate()] == [
            (low + d, low + d + 5) for d in range(3)
        ]

    def test_non_unit_coefficients_round_inward(self):
        # 3i >= 7 and -2i + 11 >= 0 (i <= 5.5): i in [3, 5].
        s = BasicSet(
            ("i",),
            [Constraint.ge(var("i") * 3, 7), Constraint.ge(var("i") * -2 + 11)],
        )
        assert s.infer_bounds() == {"i": (3, 5)}
        assert s.ground().mask is None
        # 2i == 7 has no integer solution.
        assert BasicSet(("i",), [Constraint.eq(var("i") * 2, 7)]).is_empty()

    def test_proved_empty_sets_get_empty_intervals(self):
        # i's range is empty and j is unconstrained: empty, not unbounded.
        s = BasicSet(("i", "j"), [Constraint.ge(var("i"), 5), Constraint.le(var("i"), 3)])
        assert s.infer_bounds() == {"i": (0, -1), "j": (0, -1)}
        assert s.is_empty()
        assert s.count() == 0
        assert s.enumerate() == PointSet.empty(2)


def _centered(coeffs: dict[str, int], constant: int, origin: int) -> LinearExpr:
    """``sum(a_v * (v - origin)) + constant``: small values near ``origin``."""
    return LinearExpr(coeffs, constant - sum(coeffs.values()) * origin)


@st.composite
def oracle_sets(draw):
    """A 1-3 variable box near 0 or near either end of int64, cut by
    single-variable equalities and inequalities with non-unit and negative
    coefficients, multi-variable (triangles among them) and modular
    constraints, and constant ones.  Returns the set, the box a brute
    force scans, and whether every constraint is single-variable."""
    dim = draw(st.integers(1, 3))
    names = ("i", "j", "k")[:dim]
    origin = draw(st.sampled_from(ORIGINS))
    bounds = {}
    for name in names:
        low = origin + draw(st.integers(-6, 4))
        bounds[name] = (low, low + draw(st.integers(1, 6)))
    result = box(bounds)
    exact_box = True
    coefficient = st.integers(-4, 4).filter(bool)
    for _ in range(draw(st.integers(0, 3))):
        shape = draw(
            st.sampled_from(("single", "triangle", "coupled", "mod", "constant"))
        )
        if shape == "single":
            expr = _centered(
                {draw(st.sampled_from(names)): draw(coefficient)},
                draw(st.integers(-12, 12)),
                origin,
            )
            make = draw(st.sampled_from((Constraint.ge, Constraint.eq)))
            result = result.with_constraints(make(expr))
            continue
        if shape == "constant":
            result = result.with_constraints(Constraint.ge(const(draw(st.integers(-1, 1)))))
            continue
        exact_box = False
        if shape == "triangle" and dim > 1:
            a, b = draw(st.permutations(names))[:2]
            expr = _centered({a: 1, b: -1}, draw(st.integers(-3, 3)), origin)
            result = result.with_constraints(Constraint.ge(expr))
        elif shape in ("triangle", "coupled"):
            coeffs = {name: draw(st.integers(-3, 3)) for name in names}
            expr = _centered(coeffs, draw(st.integers(-8, 8)), origin)
            make = draw(st.sampled_from((Constraint.ge, Constraint.eq)))
            result = result.with_constraints(make(expr))
        else:
            coeffs = {name: draw(st.integers(-3, 3)) for name in names}
            expr = _centered(coeffs, 0, origin)
            result = result.with_constraints(
                Constraint.mod(expr, draw(st.integers(2, 4)), draw(st.integers(0, 3)))
            )
    return result, bounds, exact_box


def _brute_force(basic: BasicSet, bounds) -> list[tuple[int, ...]]:
    ranges = (range(lo, hi) for lo, hi in bounds.values())
    return [p for p in itertools.product(*ranges) if basic.contains(p)]


class TestGroundingOracle:
    @settings(max_examples=200)
    @given(oracle_sets())
    def test_enumerate_count_is_empty_and_bounds(self, case):
        basic, bounds, exact_box = case
        rows = _brute_force(basic, bounds)
        enumerated = basic.enumerate()
        assert list(enumerated) == rows
        assert enumerated.points.dtype == np.int64
        assert enumerated == as_set(rows, basic.dim)
        assert basic.count() == len(rows)
        assert basic.is_empty() == (not rows)
        inferred = basic.infer_bounds()
        assert list(inferred) == list(basic.space)
        if any(lo > hi for lo, hi in inferred.values()):
            assert not rows
            assert set(inferred.values()) == {(0, -1)}
            return
        for k, name in enumerate(basic.space):
            lo, hi = inferred[name]
            assert bounds[name][0] <= lo and hi < bounds[name][1]
            if rows:
                column = [p[k] for p in rows]
                assert lo <= min(column) and max(column) <= hi
                if exact_box:
                    assert (lo, hi) == (min(column), max(column))

    @settings(max_examples=100)
    @given(oracle_sets(), st.data())
    def test_values_match_pointwise_evaluation(self, case, data):
        basic, bounds, exact_box = case
        grounding = basic.ground()
        origin = next(iter(bounds.values()))[0]
        coeffs = {
            name: data.draw(st.integers(-5, 5)) for name in basic.space
        }
        expr = _centered(coeffs, data.draw(st.integers(-9, 9)), origin)
        rows = _brute_force(basic, bounds)
        assert grounding.size == len(rows)
        assert (grounding.mask is None) or (grounding.mask.sum() == len(rows))
        if exact_box:
            assert grounding.mask is None
        assert grounding.values(expr).tolist() == [
            expr.evaluate(dict(zip(basic.space, p))) for p in rows
        ]

    def test_values_reject_variables_outside_the_space(self):
        with pytest.raises(ValidationError):
            box({"i": (0, 3)}).ground().values(var("j"))


@st.composite
def partitioned_pieces(draw):
    """A 1-3 deep nest whose accesses use zero, negative and repeated
    coefficients and constant subscripts, split by ``whole()``,
    ``block_partition`` or ``cyclic_partition`` on a random loop."""
    depth = draw(st.integers(1, 3))
    names = ("i", "j", "k")[:depth]
    bounds = []
    for name in names:
        low = draw(st.integers(-3, 2))
        bounds.append((name, low, low + draw(st.integers(1, 5))))
    nest = LoopNest(bounds)
    arrays = (ArraySpec("A", (64,)), ArraySpec("B", (8, 8)), ArraySpec("C", (4, 4, 4)))
    accesses = []
    for _ in range(draw(st.integers(1, 4))):
        array = draw(st.sampled_from(arrays))
        repeated = draw(st.integers(-3, 3))
        subscripts = []
        for _ in range(array.rank):
            kind = draw(st.sampled_from(("affine", "repeated", "constant")))
            if kind == "constant":
                subscripts.append(draw(st.integers(-2, 9)))
            else:
                coeffs = {
                    name: repeated if kind == "repeated" else draw(st.integers(-3, 3))
                    for name in names
                }
                subscripts.append(LinearExpr(coeffs, draw(st.integers(-4, 9))))
        accesses.append(AffineAccess(array, subscripts, is_write=draw(st.booleans())))
    fragment = ProgramFragment("f", nest, accesses)
    split = draw(st.sampled_from(("whole", "block", "cyclic")))
    if split == "whole":
        return fragment, [fragment.whole()]
    loop_var = draw(st.sampled_from(names))
    low, high = nest.bounds_of(loop_var)
    count = draw(st.integers(1, high - low))
    partition = block_partition if split == "block" else cyclic_partition
    return fragment, partition(fragment, count, loop_var)


class TestPiecesReadTheGrounding:
    @settings(max_examples=100)
    @given(partitioned_pieces())
    def test_access_columns_and_trip_count_match_the_access_maps(self, case):
        fragment, pieces = case
        loop_vars = fragment.nest.variables
        for piece in pieces:
            rows = _brute_force(
                piece.subset, {name: (lo, hi) for name, lo, hi in fragment.nest.bounds}
            )
            points = piece.iteration_points()
            assert list(points) == rows
            assert piece.trip_count == len(points)
            columns = {name: points.points[:, i] for i, name in enumerate(loop_vars)}
            got = piece.access_columns()
            assert len(got) == len(fragment.accesses)
            for (array, offsets, is_write), access in zip(got, fragment.accesses):
                assert array == access.array and is_write == access.is_write
                expected_offsets = access.access_map(loop_vars).apply_columns(columns)[:, 0]
                assert offsets.dtype == np.int64
                assert offsets.tolist() == expected_offsets.tolist()
                assert not offsets.flags.writeable
        assert sum(piece.trip_count for piece in pieces) == fragment.nest.trip_count


def _refuse(*args, **kwargs):
    raise AssertionError("the trace path must not enumerate or filter")


def test_figure7_traces_build_without_grids(monkeypatch):
    """Every trace and DS set of the full figure-7 mix comes from the
    groundings: no enumeration, no access-map application and no
    constraint filter runs."""
    tasks = [spec.build(scale=1.0) for spec in SUITE]  # fresh, uncached pieces
    epg = ExtendedProcessGraph.from_tasks(tasks)
    machine = MachineConfig.paper_default()
    layout = default_layout(epg, machine)
    monkeypatch.setattr(BasicSet, "enumerate", _refuse)
    monkeypatch.setattr(AffineMap, "apply_columns", _refuse)
    monkeypatch.setattr(Constraint, "holds_vectorized", _refuse)
    accesses = 0
    for process in epg:
        trace = build_trace(process, layout, machine.geometry())
        assert len(trace.lines) == sum(
            piece.trip_count * len(piece.fragment.accesses) for piece in process.pieces
        )
        accesses += len(trace.lines)
        assert process.data_sets()
    assert accesses > 0
    for task in tasks:
        for process in task.processes:
            for piece in process.pieces:
                nest = piece.fragment.nest
                assert nest.space() is nest.space()
