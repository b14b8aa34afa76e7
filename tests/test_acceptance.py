"""End-to-end acceptance checks.

One test per criterion, each ending in a single PASS line (printed, and
mirrored by the pytest verdict): desk-scale state-graph connectivity,
constructive completeness over >= 1e5 sampled pairs, the rigid small
instance, cubic diameter growth, seven randomized invariant suites at
>= 1e4 cases each, the block-state graph, and nearly-balanced repair.
"""

import itertools
import math
import random

from trirecom import (
    apply_flip,
    build_region,
    build_state_graph,
    enumerate_omega,
    flip_valid,
    ground_state,
    in_omega,
    path,
    verify_trace,
)
from trirecom.moves import neighborhood_flip_test, reverse
from trirecom.oracle import rigid_states, unlabeled_form
from trirecom.partition import (
    BalanceClass,
    classify,
    tricolor_triangles,
)
from trirecom.pathfinder import balance_nearly, ground_path
from trirecom.toolkit import (
    build_tower,
    execute_tower,
    bfs_last_order,
    StructuralError,
)

from support import (
    apply_recom,
    boundary_pair_alternates,
    connected_components,
    district_set,
    is_connected,
    is_cut_vertex,
    is_simply_connected,
    lift_flip,
    random_connected_subset,
    random_interior_tripartition,
    recom_valid,
    state_pool,
    unclassified,
)

OMEGA5_COUNT = 3306  # frozen enumeration fixture for n=5, k=(5,5,5), slack 1


def _replay(p, trace):
    cur = p
    for step in trace.steps:
        cur = apply_recom(cur, step)
    return cur


def _check_pair(sigma, tau):
    trace = path(sigma, tau)
    report = verify_trace(sigma, trace)
    assert report["ok"], report
    assert report["final"].labels == tau.labels
    return len(trace)


def test_criterion_1_connectivity(omega5, graph5):
    """n=5, k=(5,5,5), slack 1: the full window is one component."""
    assert len(omega5) == OMEGA5_COUNT
    assert graph5.num_components == 1
    print(f"CRITERION 1: PASS - |window| = {len(omega5)}, 1 component")


def test_criterion_2_constructive_completeness(omega5):
    """path() + independent verification succeed on >= 1e5 sampled ordered
    pairs (fixed seed); success rate 100%."""
    rng = random.Random(20240823)
    pairs = 100_000
    max_len = 0
    for _ in range(pairs):
        sigma = omega5[rng.randrange(len(omega5))]
        tau = omega5[rng.randrange(len(omega5))]
        max_len = max(max_len, _check_pair(sigma, tau))
    print(f"CRITERION 2: PASS - {pairs} pairs verified, max length {max_len}")


def test_criterion_3_rigid_counterexample(omega3_exact, omega3_relaxed):
    """n=3, k=(2,2,2): slack 0 has rigid states; slack 1 is connected."""
    exact = build_state_graph(omega3_exact)
    rigid = rigid_states(exact)
    assert len(rigid) >= 1
    # rigid here means the district map never changes: every neighbor is a
    # relabeling of the same split
    for p in rigid:
        i = exact.index_of_state(p)
        assert all(
            unlabeled_form(exact.states[j]) == unlabeled_form(p)
            for j in exact.adjacency[i]
        )
    relaxed = build_state_graph(omega3_relaxed)
    assert relaxed.num_components == 1
    print(
        f"CRITERION 3: PASS - {len(rigid)} rigid exact-size states; "
        f"slack-1 window connected"
    )


def test_criterion_4_diameter_growth(omega5):
    """Max trace length over >= 1e3 sampled pairs per side obeys C * n^3 with
    C fixed at n=5, and the log-log growth slope is at most 3.5."""
    rng = random.Random(4)
    pairs_per_side = 1000
    max_lens = {}
    for n in (5, 6, 7, 8):
        if n == 5:
            pool = omega5
        else:
            pool = state_pool(n, 150, seed=40 + n)
        longest = 0
        for _ in range(pairs_per_side):
            sigma = pool[rng.randrange(len(pool))]
            tau = pool[rng.randrange(len(pool))]
            longest = max(longest, len(path(sigma, tau)))
        max_lens[n] = longest
    budget_c = max_lens[5] / 5**3
    for n, longest in max_lens.items():
        assert longest <= budget_c * n**3, (n, longest, budget_c)
    xs = [math.log(n) for n in max_lens]
    ys = [math.log(longest) for longest in max_lens.values()]
    x_bar = sum(xs) / len(xs)
    y_bar = sum(ys) / len(ys)
    slope = sum(
        (x - x_bar) * (y - y_bar) for x, y in zip(xs, ys)
    ) / sum((x - x_bar) ** 2 for x in xs)
    assert slope <= 3.5, (slope, max_lens)
    print(
        f"CRITERION 4: PASS - max lengths {max_lens}, C = {budget_c:.4f}, "
        f"log-log slope {slope:.3f} <= 3.5"
    )


def test_criterion_5a_cut_vertex_neighborhood(omega5):
    """Cut vertex iff own-district neighborhood disconnects, 1e4 cases."""
    rng = random.Random(51)
    cases = 10_000
    cuts = 0
    for _ in range(cases):
        p = omega5[rng.randrange(len(omega5))]
        region = p.region
        v = region.vertices[rng.randrange(region.num_vertices)]
        split = (
            len(connected_components(region, district_set(p, p.district(v)) - {v}))
            > 1
        )
        assert is_cut_vertex(p, v) == split
        cuts += split
    assert cuts > 100
    print(f"CRITERION 5a: PASS - {cases} cases, {cuts} cut vertices, 0 failures")


def test_criterion_5b_neighborhood_flip_test(omega5):
    """The fast neighborhood flip test implies full flip validity."""
    rng = random.Random(52)
    cases = 10_000
    positives = 0
    for _ in range(cases):
        p = omega5[rng.randrange(len(omega5))]
        v = p.region.vertices[rng.randrange(p.region.num_vertices)]
        to = rng.randrange(1, 4)
        if neighborhood_flip_test(p, v, to):
            positives += 1
            assert flip_valid(unclassified(p), v, to)
    assert positives > 500
    print(
        f"CRITERION 5b: PASS - {cases} cases, {positives} positive "
        f"neighborhood tests, 0 failures"
    )


def test_criterion_5c_bfs_last_vertex():
    """Every BFS-order prefix of a connected set stays connected, and the
    last vertex has a small connected in-set neighborhood."""
    rng = random.Random(53)
    cases = 10_000
    hole_free = 0
    for i in range(cases):
        region = build_region(5 if i % 2 else 6)
        vset = random_connected_subset(region, rng, region.num_vertices)
        root = sorted(vset)[rng.randrange(len(vset))]
        order = bfs_last_order(region, region.mask_of(vset), root)
        assert set(order) == set(vset) and order[0] == root
        for cut in range(1, len(order) + 1):
            assert is_connected(region, order[:cut])
        # the last-vertex claim needs a hole-free set, as districts are
        if len(order) > 1 and is_simply_connected(region, vset):
            hole_free += 1
            last_nbhd = [
                u for u in region.neighbors(order[-1]) if u in vset
            ]
            assert 0 < len(last_nbhd) < 6
            assert is_connected(region, last_nbhd)
    assert hole_free > 5000
    print(
        f"CRITERION 5c: PASS - {cases} cases ({hole_free} hole-free), "
        f"0 failures"
    )


def test_criterion_5d_reversibility_and_containment(omega5):
    """Every window-preserving flip is a recombination move in both
    directions, and reversing the lifted step restores the state."""
    rng = random.Random(54)
    cases = 0
    trials = 0
    while cases < 10_000:
        trials += 1
        p = omega5[rng.randrange(len(omega5))]
        v = p.region.vertices[rng.randrange(p.region.num_vertices)]
        to = rng.randrange(1, 4)
        if not flip_valid(p, v, to):
            continue
        q = apply_flip(p, v, to)
        if not in_omega(q):
            continue
        cases += 1
        assert recom_valid(p, q) and recom_valid(q, p)
        step = lift_flip(p, v, to)
        assert apply_recom(p, step) == q
        assert apply_recom(q, reverse(step, p.labels)) == p
    print(
        f"CRITERION 5d: PASS - {cases} window-preserving flips out of "
        f"{trials} trials, 0 failures"
    )


def test_criterion_5e_boundary_alternation(omega5):
    """No district pair alternates i..j..i..j around the region boundary,
    over >= 1e4 enumerated window states."""
    region = build_region(5)
    states = list(omega5)
    for targets in ((4, 5, 6), (6, 4, 5), (5, 6, 4)):
        states.extend(enumerate_omega(region, targets, slack=1))
    assert len(states) >= 10_000
    for p in states:
        assert not boundary_pair_alternates(p)
    print(f"CRITERION 5e: PASS - {len(states)} states, 0 alternations")


def test_criterion_5f_tricolor_triangles():
    """A valid partition whose district 3 misses the boundary has exactly
    two tricolor triangles, of opposite chirality."""
    rng = random.Random(55)
    regions = [build_region(n) for n in (6, 7, 8)]
    cases = 0
    while cases < 10_000:
        p = random_interior_tripartition(regions[rng.randrange(3)], rng)
        if p is None:
            continue
        cases += 1
        assert not p.masks()[2] & p.region.boundary_mask
        faces = tricolor_triangles(p)
        assert len(faces) == 2
        assert {t.chirality for t in faces} == {"cw", "ccw"}
    print(f"CRITERION 5f: PASS - {cases} interior-district cases, 0 failures")


def test_criterion_5g_tower_structure(omega5):
    """Every tower built over enumerated and sampled states has the straight
    alternating blocked structure and resolves bottom-up by valid flips."""
    probes = 0
    towers = 0
    pools = [omega5]
    for n in (6, 7, 8):
        pools.append(state_pool(n, 120, seed=50 + n))
    for pool in pools:
        for p in pool:
            region = p.region
            for v1 in region.vertices:
                for v2 in region.neighbors(v1):
                    probes += 1
                    try:
                        tower, v_next = build_tower(p, v1, v2)
                    except StructuralError:
                        continue
                    towers += 1
                    chain = tower + [v_next]
                    d = region.direction_of(v1, v2)
                    for a, b in zip(chain, chain[1:]):
                        assert region.line_step(a, d) == b
                        assert p.district(a) != p.district(b)
                    for i in range(1, len(chain) - 1):
                        assert not flip_valid(
                            p, chain[i], p.district(chain[i - 1])
                        )
                    states = execute_tower(p, tower, v_next)
                    assert len(states) == len(chain) - 1
                    q = states[-1]
                    expected = [0, 0, 0]
                    expected[p.district(v1) - 1] += 1
                    expected[p.district(v_next) - 1] -= 1
                    deltas = [
                        q.sizes()[k] - p.sizes()[k] for k in range(3)
                    ]
                    assert deltas == expected
    assert probes >= 10_000
    assert towers >= 1000
    print(
        f"CRITERION 5g: PASS - {probes} probes, {towers} towers built and "
        f"resolved, 0 failures"
    )


def test_criterion_6_ground_state_graph():
    """Exactly 6 block states; every ordered pair is joined within 3 steps;
    adjacent-index block transpositions take exactly one step."""
    region = build_region(5)
    targets = (5, 5, 5)
    perms = list(itertools.permutations((1, 2, 3)))
    labels = {ground_state(region, targets, perm).labels for perm in perms}
    assert len(labels) == 6
    max_steps = 0
    for a in perms:
        for b in perms:
            trace = ground_path(region, targets, a, b)
            assert trace.verified
            assert len(trace) <= 3
            final = _replay(ground_state(region, targets, a), trace)
            assert final == ground_state(region, targets, b)
            max_steps = max(max_steps, len(trace))
            adjacent_swap = (a[0], a[1], a[2]) in (
                (b[1], b[0], b[2]),
                (b[0], b[2], b[1]),
            )
            if adjacent_swap:
                assert len(trace) == 1
    assert max_steps == 3
    print("CRITERION 6: PASS - 6 block states, all pairs within 3 steps, "
          "adjacent transpositions in 1")


def test_criterion_7_nearly_balanced_repair(omega5):
    """Every nearly balanced n=5 state reaches a balanced state through a
    verified trace."""
    repaired = 0
    for p in omega5:
        if classify(p) is not BalanceClass.NEARLY_BALANCED:
            continue
        trace = balance_nearly(p)
        report = verify_trace(p, trace)
        assert report["ok"]
        final = report["final"]
        assert final.sizes() == final.targets
        repaired += 1
    assert repaired == 2844  # frozen count of nearly balanced states
    print(f"CRITERION 7: PASS - {repaired} nearly balanced states repaired")
