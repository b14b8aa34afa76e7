"""Geometry of the triangular region: ordering, neighborhoods, boundary,
symmetries, faces, and drawing coordinates."""

import math

import pytest
from hypothesis import given, strategies as st

from trirecom import build_region
from trirecom.lattice import DIRECTIONS, OUTSIDE, ordering_index

sides = st.integers(min_value=3, max_value=10)


@st.composite
def region_and_vertex(draw):
    region = build_region(draw(sides))
    idx = draw(st.integers(0, region.num_vertices - 1))
    return region, region.vertices[idx]


def test_rejects_tiny_sides():
    with pytest.raises(ValueError):
        build_region(2)


@given(sides)
def test_vertex_enumeration_matches_ordering(n):
    region = build_region(n)
    assert region.num_vertices == n * (n + 1) // 2
    # vertices are listed in ordering-index order, 1-based vs 0-based index_of
    assert [ordering_index(v) for v in region.vertices] == list(
        range(1, region.num_vertices + 1)
    )
    assert all(region.index_of[v] + 1 == ordering_index(v) for v in region.vertices)


@given(region_and_vertex())
def test_neighbor_slots_match_direction_offsets(rv):
    region, v = rv
    col, row = v
    slots = region.neighbors_cyclic(v)
    assert len(slots) == 6
    for d, (dcol, drow) in enumerate(DIRECTIONS):
        u = (col + dcol, row + drow)
        assert slots[d] == (u if u in region.vertex_set else OUTSIDE)
    assert tuple(u for u in slots if u is not OUTSIDE) == region.neighbors(v)


@given(region_and_vertex())
def test_adjacency_symmetric(rv):
    region, v = rv
    for u in region.neighbors(v):
        assert region.adjacent(u, v) and region.adjacent(v, u)
        assert v in region.neighbors(u)


@given(region_and_vertex())
def test_degree_by_location(rv):
    region, v = rv
    degree = len(region.neighbors(v))
    if v in region.corners:
        assert degree == 2
    elif region.is_boundary(v):
        assert degree == 4
    else:
        assert degree == 6


@given(region_and_vertex())
def test_boundary_outside_slots_are_one_cyclic_run(rv):
    region, v = rv
    slots = region.neighbors_cyclic(v)
    outside = [d for d in range(6) if slots[d] is OUTSIDE]
    if not region.is_boundary(v):
        assert outside == []
        return
    assert len(outside) == (4 if v in region.corners else 2)
    # the OUTSIDE slots occupy one contiguous cyclic arc, so the in-region
    # neighbors do too
    runs = 0
    for d in range(6):
        if slots[d] is OUTSIDE and slots[(d - 1) % 6] is not OUTSIDE:
            runs += 1
    assert runs == 1


@given(sides)
def test_boundary_cycle(n):
    region = build_region(n)
    cycle = region.boundary_cycle()
    assert cycle[0] == (1, 1)
    assert len(cycle) == 3 * (n - 1)
    assert region.mask_of(cycle) == region.boundary_mask
    assert len(set(cycle)) == len(cycle)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert region.adjacent(a, b)


@given(region_and_vertex())
def test_reflect_is_an_involution_preserving_adjacency(rv):
    region, v = rv
    w = region.reflect(v)
    assert w in region.vertex_set
    assert w[0] == v[0]
    assert region.reflect(w) == v
    for u in region.neighbors(v):
        assert region.adjacent(region.reflect(u), w)


@given(region_and_vertex())
def test_rotate_has_order_three_and_cycles_corners(rv):
    region, v = rv
    n = region.n
    w = region.rotate(v)
    assert w in region.vertex_set
    assert region.rotate(region.rotate(w)) == v
    cycle = {(1, 1): (n, 1), (n, 1): (n, n), (n, n): (1, 1)}
    if v in cycle:
        assert w == cycle[v]
    for u in region.neighbors(v):
        assert region.adjacent(region.rotate(u), w)


@given(region_and_vertex())
def test_rotate_shifts_slots_by_two(rv):
    region, v = rv
    for u in region.neighbors(v):
        d = region.direction_of(v, u)
        assert region.direction_of(region.rotate(v), region.rotate(u)) == (d + 2) % 6


@given(sides)
def test_columns_partition_the_region(n):
    region = build_region(n)
    assert region.cols_leq_mask(0) == 0
    seen = 0
    for i in range(1, n + 1):
        col = region.cols_leq_mask(i) & ~region.cols_leq_mask(i - 1)
        assert col.bit_count() == i
        assert all(v[0] == i for v in region.vertices_of(col))
        assert not col & seen
        seen |= col
    assert seen == region.full_mask == region.cols_leq_mask(n)
    assert region.cols_leq_mask(n + 1) == region.full_mask


@given(region_and_vertex())
def test_line_step_direction_roundtrip(rv):
    region, v = rv
    for d in range(6):
        u = region.line_step(v, d)
        if u is not OUTSIDE:
            assert region.adjacent(u, v)
            assert region.direction_of(v, u) == d


@given(region_and_vertex())
def test_common_neighbors(rv):
    region, v = rv
    for u in region.neighbors(v):
        common = region.common_neighbors(v, u)
        assert set(common) == set(region.neighbors(v)) & set(region.neighbors(u))
        assert len(common) <= 2


@given(sides)
def test_faces_are_clockwise_triangles(n):
    region = build_region(n)
    assert len(region.faces) == (n - 1) ** 2
    assert len(set(region.faces)) == len(region.faces)
    for face in region.faces:
        a, b, c = (region.position(v) for v in face)
        for u, w in ((face[0], face[1]), (face[1], face[2]), (face[2], face[0])):
            assert region.adjacent(u, w)
        # positive cross product means clockwise with y pointing down
        cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        assert cross > 0


@given(region_and_vertex())
def test_positions_realize_the_unit_lattice(rv):
    region, v = rv
    x, y = region.position(v)
    for u in region.neighbors(v):
        ux, uy = region.position(u)
        assert math.dist((x, y), (ux, uy)) == pytest.approx(1.0)
