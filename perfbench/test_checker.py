"""Tests of the benchmark's independent checker.

Run with ``python3 -m pytest perfbench``.
"""

import itertools
from collections import deque

import pytest

from checker import CheckError, Grid, check_route, check_state, state_error


def idx(col, row):
    return col * (col - 1) // 2 + row - 1


def labels_from(n, assign, default):
    """Labels of side n: `assign` maps (col, row) to a district."""
    out = [default] * (n * (n + 1) // 2)
    for (col, row), d in assign.items():
        out[idx(col, row)] = d
    return tuple(out)


def simply_connected_by_definition(grid, members):
    """Connected, and every component of the complement touches the region's
    boundary (a vertex with fewer than six neighbours)."""
    if not members or not grid.is_connected(members):
        return False
    rest = set(range(grid.size)) - set(members)
    while rest:
        start = rest.pop()
        comp, queue = {start}, deque([start])
        while queue:
            v = queue.popleft()
            for u in grid.adj[v]:
                if u in rest:
                    rest.discard(u)
                    comp.add(u)
                    queue.append(u)
        if all(len(grid.adj[v]) == 6 for v in comp):
            return False
    return True


def test_grid_shape():
    grid = Grid(4)
    assert grid.size == 10
    assert sum(len(a) for a in grid.adj) // 2 == 18
    assert sum(len(t) for t in grid.triangles_at) == 9
    # (2, 1) touches (1, 1), (3, 1), (3, 2), (2, 2)
    assert sorted(grid.adj[idx(2, 1)]) == sorted(
        [idx(1, 1), idx(3, 1), idx(3, 2), idx(2, 2)]
    )


@pytest.mark.parametrize("n", [3, 4])
def test_hole_test_matches_the_definition_on_every_subset(n):
    grid = Grid(n)
    for r in range(grid.size + 1):
        for members in itertools.combinations(range(grid.size), r):
            members = frozenset(members)
            assert grid.district_ok(members) == simply_connected_by_definition(
                grid, members
            ), sorted(members)


def test_hole_on_side_five_is_found():
    grid = Grid(5)
    ring = {(3, 1), (4, 2), (4, 3), (3, 3), (2, 2), (2, 1)}
    assert grid.is_connected({idx(*v) for v in ring})
    assert grid.euler_characteristic({idx(*v) for v in ring}) == 0
    # a ring plus a separate vertex has Euler characteristic 1 but is
    # disconnected
    ring_and_corner = {idx(*v) for v in ring | {(5, 5)}}
    assert grid.euler_characteristic(ring_and_corner) == 1
    assert not grid.district_ok(ring_and_corner)
    holed = labels_from(5, {**{v: 1 for v in ring}, (3, 2): 2}, 3)
    assert "district 1" in state_error(grid, (6, 1, 8), holed)
    filled = labels_from(5, {**{v: 1 for v in ring}, (3, 2): 1, (1, 1): 2}, 3)
    assert state_error(grid, (7, 1, 7), filled) is None


def test_block_state_is_valid():
    grid = Grid(5)
    block = (1,) * 5 + (2,) * 5 + (3,) * 5
    check_state(grid, (5, 5, 5), block)


def test_disconnected_district_is_refused():
    grid = Grid(5)
    # district 2 = (1, 1) and (5, 5), far apart
    labels = labels_from(5, {(1, 1): 2, (5, 5): 2}, 1)
    labels = tuple(3 if i in (idx(5, 1), idx(5, 2)) else d for i, d in enumerate(labels))
    with pytest.raises(CheckError, match="district 2"):
        check_state(grid, (11, 2, 2), labels)


def test_size_outside_the_window_is_refused():
    grid = Grid(5)
    block = (1,) * 5 + (2,) * 5 + (3,) * 5
    assert state_error(grid, (5, 5, 5), block) is None
    with pytest.raises(CheckError, match="district 1 has 5 vertices, target 7"):
        check_state(grid, (7, 4, 4), block)


def test_bad_labels_are_refused():
    grid = Grid(5)
    with pytest.raises(CheckError, match="labels for"):
        check_state(grid, (5, 5, 5), (1,) * 14)
    with pytest.raises(CheckError, match="outside"):
        check_state(grid, (5, 5, 5), (1,) * 5 + (2,) * 5 + (4,) * 5)


def _one_flip_route():
    # Block state, then vertex 5 (the first of district 2) joins district 1:
    # district 3 is untouched.
    source = (1,) * 5 + (2,) * 5 + (3,) * 5
    after = (1,) * 6 + (2,) * 4 + (3,) * 5
    return source, after


def test_valid_route_passes():
    grid = Grid(5)
    source, after = _one_flip_route()
    check_route(grid, (5, 5, 5), source, after, [(3, after)])
    check_route(grid, (5, 5, 5), source, source, [])


def test_wrong_untouched_label_is_refused():
    grid = Grid(5)
    source, after = _one_flip_route()
    for wrong in (1, 2):
        with pytest.raises(CheckError, match="is not untouched"):
            check_route(grid, (5, 5, 5), source, after, [(wrong, after)])


def test_route_must_end_at_target_and_change_state():
    grid = Grid(5)
    source, after = _one_flip_route()
    with pytest.raises(CheckError, match="does not end"):
        check_route(grid, (5, 5, 5), source, source, [(3, after)])
    with pytest.raises(CheckError, match="does not change"):
        check_route(grid, (5, 5, 5), source, source, [(3, source)])


def test_route_through_an_invalid_state_is_refused():
    grid = Grid(5)
    source, _ = _one_flip_route()
    # district 1 loses (1, 1) to district 3, which becomes disconnected
    bad = (3,) + source[1:]
    with pytest.raises(CheckError, match="step 0: district 3"):
        check_route(grid, (5, 5, 5), source, bad, [(2, bad)])
    with pytest.raises(CheckError, match="source"):
        check_route(grid, (5, 5, 5), bad, source, [(2, source)])
