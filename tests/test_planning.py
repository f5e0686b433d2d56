import heapq
import itertools
import json
import math
import struct
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motionbands.errors import InvalidParameterError, RejectedInputError, UnknownSegmentError
from motionbands.filters import BandOutputs
from motionbands.isochron import IsochronalStore, minute_of_day
from motionbands.motion import MotionFrame, block_mean
from motionbands.planning import (
    LETHAL_COST,
    MODE_OFFLINE,
    MODE_REALTIME,
    CostMap,
    Node,
    PathGraph,
    PlanQuery,
    PlanResult,
    Segment,
    SegmentBreakdown,
    _block_cells,
    plan_path,
    read_costmap,
    splat_activity,
    write_costmap,
)


def _frame(density, t=0):
    d = np.atleast_2d(np.asarray(density, dtype=float))
    return MotionFrame(density=d, dir_hist=np.zeros(d.shape + (8,)), timestamp_ms=t)


def _store_with(camera_id, density, minutes=(600,), grid=(2, 2)):
    gw, gh = grid
    store = IsochronalStore(camera_id, gw, gh)
    d = np.full((gh, gw), float(density))
    for m in minutes:
        store.update(m, _frame(d))
    return store


def _bands(camera_id, s1_density, t_ms, grid=(2, 2)):
    gw, gh = grid
    d = np.full((gh, gw), float(s1_density))
    frame = MotionFrame(density=d, dir_hist=np.zeros((gh, gw, 8)), timestamp_ms=t_ms)
    zero = MotionFrame(density=np.zeros((gh, gw)), dir_hist=np.zeros((gh, gw, 8)), timestamp_ms=t_ms)
    return BandOutputs(m_l1=frame, m_s1=frame, m_s2=zero)


def _diamond(base_costs=(1.0, 1.0, 5.0, 5.0)):
    """A-B-D (cameras cam_busy) and A-C-D (cam_dead), optionally longer."""
    nodes = [Node("A", 0, 0), Node("B", 1, 1), Node("C", 1, -1), Node("D", 2, 0)]
    segs = [
        Segment("ab", "A", "B", base_costs[0], camera_id="cam_busy"),
        Segment("bd", "B", "D", base_costs[1], camera_id="cam_busy"),
        Segment("ac", "A", "C", base_costs[2], camera_id="cam_dead"),
        Segment("cd", "C", "D", base_costs[3], camera_id="cam_dead"),
    ]
    return PathGraph(nodes, segs)


def _live_price(density, lam):
    """The plan across one segment of base cost 0 under camera "cam", real
    time with w1 = 0 and w2 = 1, the camera's live in-place band at
    ``density`` and no store: its one activity is the live price alone."""
    graph = PathGraph([Node("A", 0, 0), Node("B", 1, 0)], [Segment("ab", "A", "B", 1.0, "cam", base_cost=0.0)])
    d = np.atleast_2d(np.asarray(density, dtype=float))
    bands = BandOutputs(m_l1=_frame(d), m_s1=_frame(d), m_s2=_frame(np.zeros_like(d)))
    query = PlanQuery("A", "B", mode="realtime", w1=0.0, w2=1.0, lam=lam)
    return plan_path(graph, query, {}, {"cam": bands})


class TestSegmentCost:
    """A camera's activity price, lam times its view's mean density, read
    from ``plan_path`` results."""

    def test_zero_profile(self):
        assert _live_price([[0.0, 0.0]], 1.5).segments[0].activity == 0.0

    def test_uniform_density(self):
        assert _live_price([[2.0, 2.0], [2.0, 2.0]], 1.5).segments[0].activity == pytest.approx(3.0)

    def test_uncovered_segment_free(self):
        graph = PathGraph([Node("A", 0, 0), Node("B", 1, 0)], [Segment("ab", "A", "B", 1.0)])
        res = plan_path(graph, PlanQuery("A", "B", mode="realtime", lam=2.0))
        assert res.segments == [SegmentBreakdown("ab", 1.0, 0.0)]
        assert res.total_cost == 1.0 and not res.degraded

    def test_invalid_lambda(self):
        with pytest.raises(InvalidParameterError, match="lam"):
            PlanQuery("A", "B", mode="realtime", lam=0.0)

    def test_nan_lambda_rejected(self):
        with pytest.raises(InvalidParameterError, match="lam"):
            PlanQuery("A", "B", mode="realtime", lam=math.nan)

    @given(
        shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
        data=st.data(),
        lam=st.one_of(st.floats(1e-300, 1e300), st.sampled_from([1.0, 0.1, 3e16, 1e308])),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_mean(self, shape, data, lam):
        values = st.one_of(
            st.floats(-1e300, 1e300),
            st.floats(0.0, 1.0),
            st.sampled_from([0.0, -0.0, 5e-324, 0.1, 1.0, 1e300, 1.7976931348623157e308]),
        )
        n = shape[0] * shape[1]
        density = np.array(data.draw(st.lists(values, min_size=n, max_size=n))).reshape(shape)
        with np.errstate(over="ignore", invalid="ignore"):
            want = lam * float(density.mean())
            res = _live_price(density, lam)
        got = res.segments[0].activity
        if 0 <= want < math.inf:
            # The long-term term is a 0.0 that the live price is added to.
            assert struct.pack("<d", got) == struct.pack("<d", 0.0 + want)
            assert not res.degraded
        else:
            # A negative, NaN or overflowing live price is left out.
            assert got == 0.0 and res.degraded and res.stale_cameras == ["cam"]


class TestCost1:
    """The off-line route cost: learned activity at ``t_star``, read from
    ``plan_path`` results."""

    def test_never_active_segment_infeasible(self):
        graph = _diamond()
        stores = {"cam_busy": _store_with("cam_busy", 2.0), "cam_dead": _store_with("cam_dead", 0.0)}
        # Every route to C crosses a segment of the never-active camera.
        res = plan_path(graph, PlanQuery("A", "C", t_star=600), stores)
        assert not res.found and math.isinf(res.total_cost)
        assert res.excluded_cameras == ["cam_dead"]
        res = plan_path(graph, PlanQuery("A", "D", t_star=600), stores)
        assert res.nodes == ["A", "B", "D"] and res.excluded_cameras == ["cam_dead"]

    def test_an_excluded_camera_is_priced_again_once_a_minute_is_active(self):
        # The store caches its support mask; an update drops it.
        graph = _diamond()
        stores = {"cam_busy": _store_with("cam_busy", 2.0), "cam_dead": _store_with("cam_dead", 0.0)}
        query = PlanQuery("A", "C", t_star=600)
        res = plan_path(graph, query, stores)
        assert not res.found and res.excluded_cameras == ["cam_dead"]
        stores["cam_dead"].update(30, _frame(np.full((2, 2), 0.5)))
        res = plan_path(graph, query, stores)
        assert res.found and res.excluded_cameras == []
        assert res.segments == [SegmentBreakdown("ac", 5.0, 0.0)]

    def test_single_segment_value(self):
        graph = _diamond()
        stores = {"cam_busy": _store_with("cam_busy", 4.0)}
        res = plan_path(graph, PlanQuery("A", "B", t_star=600, lam=1.0), stores)
        assert res.segments == [SegmentBreakdown("ab", 1.0, 4.0)]
        assert res.total_cost == 5.0

    def test_three_segment_sum_matches_oracle(self):
        nodes = [Node(n, 0, 0) for n in "ABCD"]
        segs = [
            Segment("s1", "A", "B", 1.0, camera_id="c1"),
            Segment("s2", "B", "C", 1.0, camera_id="c2"),
            Segment("s3", "C", "D", 1.0, camera_id=None),
        ]
        graph = PathGraph(nodes, segs)
        stores = {"c1": _store_with("c1", 1.5), "c2": _store_with("c2", 2.5)}
        res = plan_path(graph, PlanQuery("A", "D", t_star=600, lam=2.0), stores)
        assert [s.activity for s in res.segments] == [2.0 * 1.5, 2.0 * 2.5, 0.0]
        assert res.total_cost == 3.0 + 2.0 * 1.5 + 2.0 * 2.5


class TestCost2:
    """The real-time route cost: w1 times the off-line cost at the current
    minute plus w2 times the live activity, read from ``plan_path``
    results."""

    def test_weight_collapse_to_cost1(self):
        graph = _diamond()
        stores = {"cam_busy": _store_with("cam_busy", 2.0, minutes=range(0, 1440, 60))}
        t_ms = 600 * 60_000
        live = {"cam_busy": _bands("cam_busy", 9.0, t_ms)}
        res = plan_path(graph, PlanQuery("A", "D", mode="realtime", t_ms=t_ms, w1=1.0, w2=0.0), stores, live)
        offline = plan_path(graph, PlanQuery("A", "D", t_star=600), stores)
        assert res.segments == offline.segments
        assert res.total_cost == offline.total_cost

    def test_zero_activity_everywhere(self):
        nodes = [Node("A", 0, 0), Node("B", 1, 0)]
        graph = PathGraph(nodes, [Segment("ab", "A", "B", 1.0)])
        res = plan_path(graph, PlanQuery("A", "B", mode="realtime", w1=1.0, w2=1.0), {}, {})
        assert res.found and res.segments[0].activity == 0.0
        assert res.total_cost == 1.0 and not res.degraded

    def test_stale_live_data_degrades_to_longterm_only(self):
        graph = _diamond()
        stores = {"cam_busy": _store_with("cam_busy", 2.0, minutes=range(0, 1440, 60))}
        t_ms = 600 * 60_000
        stale = {"cam_busy": _bands("cam_busy", 9.0, t_ms - 60_000)}
        query = PlanQuery("A", "D", mode="realtime", t_ms=t_ms, w1=0.5, w2=0.5, staleness_s=5.0)
        res = plan_path(graph, query, stores, stale)
        assert res.degraded and res.stale_cameras == ["cam_busy", "cam_dead"]
        offline = plan_path(graph, PlanQuery("A", "D", t_star=600), stores)
        assert [s.activity for s in res.segments] == [0.5 * s.activity for s in offline.segments]

    def test_live_term_included_when_fresh(self):
        graph = _diamond()
        stores = {"cam_busy": _store_with("cam_busy", 2.0, minutes=range(0, 1440, 60))}
        t_ms = 600 * 60_000
        live = {"cam_busy": _bands("cam_busy", 3.0, t_ms), "cam_dead": _bands("cam_dead", 0.0, t_ms)}
        res = plan_path(graph, PlanQuery("A", "D", mode="realtime", t_ms=t_ms, w1=0.5, w2=0.5), stores, live)
        assert not res.degraded and res.stale_cameras == []
        assert [s.activity for s in res.segments] == pytest.approx([0.5 * 2.0 + 0.5 * 3.0] * 2)


# ---------------------------------------------------------------------------
# Reference implementations: the per-segment pricing, search and per-block
# splat loop the planner used before pricing became per camera. The
# planner must reproduce them exactly.
# ---------------------------------------------------------------------------

def _reference_profiles(stores):
    return {cam: store.binarize(1e-3) for cam, store in stores.items()}


def _reference_segment_cost(profile, lam):
    return 0.0 if profile is None else lam * float(profile.density.mean())


def _reference_segment_feasible(seg, profiles):
    if seg.camera_id is None:
        return True
    profile = profiles.get(seg.camera_id)
    if profile is None:
        return True
    return bool(profile.any())


def _reference_store_profile(stores, seg, minute):
    if seg.camera_id is None or seg.camera_id not in stores:
        return None
    mean, _, _ = stores[seg.camera_id].query(minute)
    return mean


def _reference_edge_activity(seg, query, stores, profiles, live_bands):
    if query.mode == MODE_OFFLINE:
        return _reference_segment_cost(_reference_store_profile(stores, seg, query.t_star), query.lam), False

    minute = (query.t_ms // 60_000) % 1440
    longterm = _reference_segment_cost(_reference_store_profile(stores, seg, minute), query.lam)
    live = 0.0
    degraded = False
    if seg.camera_id is not None:
        bands = live_bands.get(seg.camera_id)
        if bands is None or abs(query.t_ms - bands.timestamp_ms) > query.staleness_s * 1000.0:
            degraded = True
        else:
            live = _reference_segment_cost(bands.m_s1, query.lam)
            if query.include_moving:
                live += _reference_segment_cost(bands.m_s2, query.lam)
    return query.w1 * longterm + query.w2 * live, degraded


def _reference_plan_path(graph, query, stores, live_bands):
    profiles = _reference_profiles(stores)
    edge_cost = {}
    for sid, seg in graph.segments.items():
        if not _reference_segment_feasible(seg, profiles):
            continue
        activity, degraded = _reference_edge_activity(seg, query, stores, profiles, live_bands)
        edge_cost[sid] = (seg.traversal_cost, activity, degraded)

    heap = [(0.0, 0, (query.origin,), [])]
    best = {}
    while heap:
        cost, hops, path, seg_ids = heapq.heappop(heap)
        node = path[-1]
        key = (cost, hops, path)
        if node in best and best[node] <= key:
            continue
        best[node] = key
        if node == query.goal:
            breakdown = []
            degraded = False
            for sid in seg_ids:
                base, activity, dg = edge_cost[sid]
                breakdown.append(SegmentBreakdown(sid, base, activity))
                degraded = degraded or dg
            return PlanResult(found=True, nodes=list(path), segments=breakdown, total_cost=cost, degraded=degraded)
        for other, seg in graph.neighbors(node):
            if other in path or seg.segment_id not in edge_cost:
                continue
            base, activity, _ = edge_cost[seg.segment_id]
            heapq.heappush(
                heap,
                (cost + base + activity, hops + 1, path + (other,), seg_ids + [seg.segment_id]),
            )
    return PlanResult(found=False)


def _reference_splat(static_map, activity_frames, homographies):
    activity = np.zeros(static_map.cells.shape, dtype=np.uint8)
    skipped = 0
    touched = 0
    for cam_id, frame in sorted(activity_frames.items()):
        h = np.asarray(homographies[cam_id], dtype=np.float64)
        for by in range(frame.grid_h):
            for bx in range(frame.grid_w):
                d = frame.density[by, bx]
                if d <= 0:
                    continue
                vec = h @ np.array([bx + 0.5, by + 0.5, 1.0])
                if vec[2] == 0:
                    skipped += 1
                    continue
                col = math.floor((vec[0] / vec[2] - static_map.origin_x) / static_map.resolution_m)
                row = math.floor((vec[1] / vec[2] - static_map.origin_y) / static_map.resolution_m)
                if not (0 <= row < activity.shape[0] and 0 <= col < activity.shape[1]):
                    skipped += 1
                    continue
                cell = row, col
                cost = min(LETHAL_COST, int(round(d * 254.0)))
                if cost > activity[cell]:
                    activity[cell] = cost
                touched += 1
    return np.maximum(static_map.cells, activity), touched, skipped


def _enumerate_paths(graph, origin, goal):
    """Brute-force oracle: all simple paths via DFS."""
    paths = []

    def dfs(node, visited, nodes, segs):
        if node == goal:
            paths.append((tuple(nodes), tuple(segs)))
            return
        for other, seg in graph.neighbors(node):
            if other in visited:
                continue
            dfs(other, visited | {other}, nodes + [other], segs + [seg.segment_id])

    dfs(origin, {origin}, [origin], [])
    return paths


def _oracle_best(graph, query, stores, live_bands=None):
    """Exhaustive minimum under the same edge pricing and tie-break."""
    live_bands = live_bands or {}
    profiles = _reference_profiles(stores)
    best = None
    for nodes, segs in _enumerate_paths(graph, query.origin, query.goal):
        total = 0.0
        ok = True
        for sid in segs:
            seg = graph.segments[sid]
            if not _reference_segment_feasible(seg, profiles):
                ok = False
                break
            activity, _ = _reference_edge_activity(seg, query, stores, profiles, live_bands)
            total += seg.traversal_cost + activity
        if not ok:
            continue
        key = (total, len(segs), nodes)
        if best is None or key < best:
            best = key
    return best


class TestPlanPath:
    def test_single_route_returned(self):
        nodes = [Node("A", 0, 0), Node("B", 1, 0), Node("C", 2, 0)]
        graph = PathGraph(nodes, [Segment("ab", "A", "B", 1.0), Segment("bc", "B", "C", 1.0)])
        res = plan_path(graph, PlanQuery(origin="A", goal="C"))
        assert res.found and res.nodes == ["A", "B", "C"]

    def test_diamond_avoids_never_active_arm(self):
        # The dead arm is shorter, but its binary profile is empty.
        graph = _diamond(base_costs=(5.0, 5.0, 1.0, 1.0))
        stores = {
            "cam_busy": _store_with("cam_busy", 3.0),
            "cam_dead": _store_with("cam_dead", 0.0),
        }
        res = plan_path(graph, PlanQuery(origin="A", goal="D", t_star=600), stores)
        assert res.found
        assert res.nodes == ["A", "B", "D"]

    def test_no_route_when_all_arms_dead(self):
        graph = _diamond()
        stores = {
            "cam_busy": _store_with("cam_busy", 0.0),
            "cam_dead": _store_with("cam_dead", 0.0),
        }
        res = plan_path(graph, PlanQuery(origin="A", goal="D"), stores)
        assert not res.found
        assert res.nodes == []

    def test_disconnected_goal_is_no_path(self):
        nodes = [Node("A", 0, 0), Node("B", 1, 0), Node("Z", 9, 9)]
        graph = PathGraph(nodes, [Segment("ab", "A", "B", 1.0)])
        res = plan_path(graph, PlanQuery(origin="A", goal="Z"))
        assert not res.found

    def test_same_endpoints_rejected(self):
        graph = _diamond()
        with pytest.raises(InvalidParameterError):
            plan_path(graph, PlanQuery(origin="A", goal="A"))

    def test_unknown_endpoint_raises(self):
        graph = _diamond()
        with pytest.raises(UnknownSegmentError):
            plan_path(graph, PlanQuery(origin="A", goal="nope"))

    @pytest.mark.parametrize(
        "fields",
        [
            {"lam": math.nan},
            {"lam": math.inf},
            {"lam": 0.0},
            {"mode": "realtime", "w1": math.nan},
            {"w2": math.nan},
            {"w1": math.inf},
            {"staleness_s": math.nan},
            {"staleness_s": -1.0},
            {"t_star": 99999},
            {"t_star": -1},
            # Accepted, 600.5 made plan_path fail later with an IndexError.
            {"t_star": 600.5},
            {"t_star": 600.0},
        ],
        ids=[
            "lam-nan", "lam-inf", "lam-zero", "w1-nan-realtime", "w2-nan", "w1-inf",
            "staleness-nan", "staleness-negative", "t_star-99999", "t_star-negative",
            "t_star-fraction", "t_star-float",
        ],
    )
    def test_invalid_query_rejected(self, fields):
        with pytest.raises(InvalidParameterError):
            PlanQuery("A", "D", **fields)

    def test_tie_break_prefers_fewer_edges_then_lexicographic(self):
        nodes = [Node(n, 0, 0) for n in "ABCD"]
        segs = [
            Segment("e1", "A", "D", 2.0),
            Segment("e2", "A", "B", 1.0),
            Segment("e3", "B", "D", 1.0),
            Segment("e4", "A", "C", 1.0),
            Segment("e5", "C", "D", 1.0),
        ]
        graph = PathGraph(nodes, segs)
        res = plan_path(graph, PlanQuery(origin="A", goal="D"))
        assert res.nodes == ["A", "D"]  # same cost, fewer edges
        graph2 = PathGraph(nodes, segs[1:])
        res2 = plan_path(graph2, PlanQuery(origin="A", goal="D"))
        assert res2.nodes == ["A", "B", "D"]  # lexicographic among equals

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_exhaustive_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n_nodes = int(rng.integers(4, 11))
        names = [f"n{i:02d}" for i in range(n_nodes)]
        nodes = [Node(n, float(rng.uniform(0, 10)), float(rng.uniform(0, 10))) for n in names]
        n_edges = int(rng.integers(n_nodes - 1, 21))
        segs = []
        cams = {}
        for i in range(n_edges):
            u, v = rng.choice(n_nodes, size=2, replace=False)
            cam = None
            if rng.uniform() < 0.5:
                cam = f"cam{int(rng.integers(0, 4))}"
            segs.append(
                Segment(
                    f"e{i:02d}",
                    names[u],
                    names[v],
                    float(rng.uniform(0.5, 5.0)),
                    camera_id=cam,
                )
            )
        for c in range(4):
            cams[f"cam{c}"] = _store_with(
                f"cam{c}", float(rng.uniform(0, 2)), minutes=range(0, 1440, 120)
            )
        graph = PathGraph(nodes, segs)
        query = PlanQuery(origin=names[0], goal=names[-1], t_star=240, lam=1.3)

        oracle = _oracle_best(graph, query, cams)
        got = plan_path(graph, query, cams)
        if oracle is None:
            assert not got.found
        else:
            assert got.found
            assert got.total_cost == pytest.approx(oracle[0], abs=1e-9)
            assert tuple(got.nodes) == oracle[2]

    def test_scaling_argmax_invariance_with_zero_base(self):
        nodes = [Node(n, 0, 0) for n in "ABCD"]

        def seg(i, u, v, cam):
            return Segment(f"e{i}", u, v, 1.0, camera_id=cam, base_cost=0.0)

        graph = PathGraph(
            nodes,
            [seg(0, "A", "B", "c0"), seg(1, "B", "D", "c0"), seg(2, "A", "C", "c1"), seg(3, "C", "D", "c1")],
        )
        for scale in (1.0, 3.0, 11.0):
            stores = {
                "c0": _store_with("c0", 1.0 * scale),
                "c1": _store_with("c1", 1.5 * scale),
            }
            res = plan_path(graph, PlanQuery(origin="A", goal="D", t_star=600), stores)
            assert res.nodes == ["A", "B", "D"]

    def test_costs_monotone_in_density_and_lambda(self):
        graph = _diamond()
        lo = {"cam_busy": _store_with("cam_busy", 1.0), "cam_dead": _store_with("cam_dead", 1.0)}
        hi = {"cam_busy": _store_with("cam_busy", 2.0), "cam_dead": _store_with("cam_dead", 1.0)}
        c_lo = plan_path(graph, PlanQuery("A", "D", t_star=600, lam=1.0), lo)
        c_hi = plan_path(graph, PlanQuery("A", "D", t_star=600, lam=1.0), hi)
        assert c_lo.nodes == c_hi.nodes == ["A", "B", "D"]
        assert c_hi.total_cost > c_lo.total_cost
        c_lam = plan_path(graph, PlanQuery("A", "D", t_star=600, lam=2.0), lo)
        assert c_lam.total_cost > c_lo.total_cost


def _grid_world(n=12):
    """n x n grid in four camera quadrants (c3 never active) around an
    uncovered cross, with learned stores whose level varies by minute."""
    nodes = [Node(f"{r:02d}_{c:02d}", float(c), float(r)) for r in range(n) for c in range(n)]
    rng = np.random.default_rng(7)
    segs = []
    for r in range(n):
        for c in range(n):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr >= n or c + dc >= n:
                    continue
                cam = None
                if r not in (n // 2 - 1, n // 2) and c not in (n // 2 - 1, n // 2):
                    cam = f"c{2 * (r >= n // 2) + (c >= n // 2)}"
                segs.append(
                    Segment(
                        f"{r:02d}_{c:02d}-{r + dr:02d}_{c + dc:02d}",
                        f"{r:02d}_{c:02d}",
                        f"{r + dr:02d}_{c + dc:02d}",
                        1.0 + 0.25 * float(rng.random()),
                        camera_id=cam,
                    )
                )
    stores = {}
    for k in range(4):
        store = IsochronalStore(f"c{k}", 3, 2)
        for m in range(0, 1440, 30):
            level = 0.0 if k == 3 else float(rng.uniform(0.05, 2.0))
            store.update(m, _frame(rng.uniform(0, level, (2, 3))))
        stores[f"c{k}"] = store
    return PathGraph(nodes, segs), stores


class TestPlanMatchesReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_grid_with_stale_and_fresh_bands(self, seed):
        graph, stores = _grid_world()
        rng = np.random.default_rng(seed)
        names = sorted(graph.nodes)
        t_ms = (2 * 1440 + int(rng.integers(0, 1440))) * 60_000
        live = {}
        for k in range(4):
            if rng.random() < 0.8:  # otherwise missing
                age = int(rng.choice([0, 1_000, 4_999, 5_001, 60_000]))
                live[f"c{k}"] = _bands(f"c{k}", float(rng.uniform(0, 3)), t_ms - age, grid=(3, 2))
        for _ in range(6):
            o, g = rng.choice(len(names), size=2, replace=False)
            for query in (
                PlanQuery(names[o], names[g], mode="realtime", t_ms=t_ms, lam=1.7,
                          w1=float(rng.uniform(0, 1)), w2=float(rng.uniform(0.1, 1)),
                          include_moving=bool(rng.random() < 0.5)),
                PlanQuery(names[o], names[g], t_star=int(rng.integers(0, 1440)), lam=0.9),
            ):
                want = _reference_plan_path(graph, query, stores, live)
                got = plan_path(graph, query, stores, live)
                assert got.found == want.found
                assert got.nodes == want.nodes
                assert got.total_cost == want.total_cost
                assert got.segments == want.segments
                assert got.degraded == want.degraded

    def test_route_costs_sum_the_planner_prices(self):
        # The route's cost is its segments' traversal costs and prices
        # summed in order, bit for bit, and it is degraded where it
        # crosses a stale camera.
        graph, stores = _grid_world()
        t_ms = 3 * 1440 * 60_000 + 600 * 60_000
        live = {"c0": _bands("c0", 1.0, t_ms, grid=(3, 2)), "c1": _bands("c1", 2.0, t_ms - 9_000, grid=(3, 2))}
        # The goal lies in c1's quadrant. (Its corner 11_11 lies in c3's,
        # which is never active, so no route reaches it.)
        query = PlanQuery("00_00", "00_11", mode="realtime", t_ms=t_ms)
        res = plan_path(graph, query, stores, live)
        assert res.found
        total = 0.0
        for s in res.segments:
            total = total + s.base + s.activity
        assert res.total_cost == total
        cameras = {graph.segments[s.segment_id].camera_id for s in res.segments}
        assert res.degraded == bool(cameras & set(res.stale_cameras))
        assert res.degraded and "c1" in cameras


# ---------------------------------------------------------------------------
# The camera pricing plan_path ran before it priced cameras straight into
# the search's slot list, kept verbatim as the oracle of that list.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _CameraPrice:
    """One camera's terms for one query, shared by every segment it covers."""

    activity: float
    feasible: bool = True
    stale: bool = False


_UNCOVERED = _CameraPrice(0.0)


def _reference_price_cameras(cameras, query, stores, profiles, live_bands):
    realtime = query.mode == MODE_REALTIME
    minute = minute_of_day(query.t_ms) if realtime else query.t_star
    prices = {}
    for cam in cameras:
        profile = profiles.get(cam)
        # No profile is not evidence that people avoid the spot.
        feasible = profile is None or bool(profile.any())
        store = stores.get(cam)
        activity = 0.0 if store is None else query.lam * store.scalar_stats(minute)[0]
        stale = False
        if realtime:
            live = 0.0
            bands = live_bands.get(cam)
            stale = bands is None or abs(query.t_ms - bands.timestamp_ms) > query.staleness_s * 1000.0
            if not stale:
                live = query.lam * block_mean(bands.m_s1.density)
                if query.include_moving:
                    live += query.lam * block_mean(bands.m_s2.density)
                if not 0 <= live < math.inf:
                    live, stale = 0.0, True
            longterm = query.w1 * activity if query.w1 else 0.0  # 0 * inf would be NaN
            activity = longterm + query.w2 * live
        if not activity < math.inf:
            raise InvalidParameterError(
                f"camera {cam!r}: activity price {activity} is not finite with lam={query.lam!r}"
            )
        prices[cam] = _CameraPrice(activity, feasible, stale)
    return prices


# ---------------------------------------------------------------------------
# The search over node-id strings that plan_path ran before the graph kept
# an integer index, kept verbatim as the oracle: plan_path must return the
# same route, segments and bit-identical cost.
# ---------------------------------------------------------------------------

def _parent_plan_path(graph, query, stores=None, live_bands=None):
    stores = stores or {}
    live_bands = live_bands or {}
    if query.origin not in graph.nodes or query.goal not in graph.nodes:
        raise UnknownSegmentError(f"unknown endpoint {query.origin!r} or {query.goal!r}")
    if query.origin == query.goal:
        raise InvalidParameterError("origin and goal must differ")

    profiles = _reference_profiles(stores)
    prices = _reference_price_cameras(graph.camera_ids, query, stores, profiles, live_bands)
    explain = {
        "excluded_cameras": sorted(cam for cam, p in prices.items() if not p.feasible),
        "stale_cameras": sorted(cam for cam, p in prices.items() if p.stale),
    }

    def price(seg):
        return _UNCOVERED if seg.camera_id is None else prices[seg.camera_id]

    heap = [(0.0, 0, (query.origin,), None)]
    via = {}
    while heap:
        cost, hops, path, seg_id = heapq.heappop(heap)
        node = path[-1]
        if node in via:
            continue
        via[node] = seg_id
        if node == query.goal:
            segs = [graph.segments[via[n]] for n in path[1:]]
            return PlanResult(
                found=True,
                nodes=list(path),
                segments=[SegmentBreakdown(s.segment_id, s.traversal_cost, price(s).activity) for s in segs],
                total_cost=cost,
                degraded=any(price(s).stale for s in segs),
                **explain,
            )
        for other, seg in graph.neighbors(node):
            if other in via:
                continue
            p = price(seg)
            if not p.feasible:
                continue
            heapq.heappush(
                heap,
                (cost + seg.traversal_cost + p.activity, hops + 1, path + (other,), seg.segment_id),
            )
    return PlanResult(found=False, **explain)


def _parent_plan_counted(graph, query, stores=None, live_bands=None):
    """The parent search's result and the number of nodes it settled: its
    neighbour lookups plus the goal when found."""
    lookups = []
    neighbors = graph.neighbors
    graph.neighbors = lambda node: lookups.append(node) or neighbors(node)
    try:
        want = _parent_plan_path(graph, query, stores, live_bands)
    finally:
        del graph.neighbors
    return want, len(lookups) + want.found


def _assert_plan_matches_parent(graph, query, stores=None, live_bands=None):
    """plan_path equals the parent search field for field. Its landmark
    bound steers it toward the goal, so it settles a subset of the nodes
    the parent settles."""
    want, want_settled = _parent_plan_counted(graph, query, stores, live_bands)
    got = plan_path(graph, query, stores, live_bands)
    assert got.found == want.found
    assert got.nodes == want.nodes
    assert got.segments == want.segments
    assert got.total_cost == want.total_cost
    assert got.degraded == want.degraded
    assert got.excluded_cameras == want.excluded_cameras
    assert got.stale_cameras == want.stale_cameras
    assert got.expansions <= want_settled
    return got


def _bench_like_world(n=30, cams=8, seed=3):
    """n x n grid shaped like the benchmark's floor: cameras tile two rows
    with an uncovered one-node margin, and the last camera never sees
    anyone. Stores sit on a 4x3 block grid, learned every 20 minutes."""
    rng = np.random.default_rng(seed)
    cols = -(-cams // 2)
    cw, ch = (n - 1) / cols, (n - 1) / 2
    rects = [
        ((k % cols) * cw + 1.0, (k % cols + 1) * cw - 1.0, (k // cols) * ch + 1.0, (k // cols + 1) * ch - 1.0)
        for k in range(cams)
    ]

    def camera_at(x, y):
        for k, (x0, x1, y0, y1) in enumerate(rects):
            if x0 <= x <= x1 and y0 <= y <= y1:
                return f"cam{k}"
        return None

    nodes = [Node(f"{r}_{c}", float(c), float(r)) for r in range(n) for c in range(n)]
    segs = []
    for r in range(n):
        for c in range(n):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < n and c + dc < n:
                    u, v = f"{r}_{c}", f"{r + dr}_{c + dc}"
                    segs.append(
                        Segment(f"{u}-{v}", u, v, 1.0 + 0.25 * float(rng.random()),
                                camera_id=camera_at(c + dc / 2, r + dr / 2))
                    )
    stores = {}
    for k in range(cams):
        store = IsochronalStore(f"cam{k}", 4, 3)
        walkable = rng.random((3, 4)) < 0.5
        for m in range(0, 1440, 20):
            level = 0.0 if k == cams - 1 else float(rng.uniform(0.02, 0.2))
            store.update(m, _frame(rng.uniform(0, level, (3, 4)) * walkable))
        stores[f"cam{k}"] = store
    return PathGraph(nodes, segs), stores


def _unit_grid(rows, cols):
    """Unit-length grid with no cameras; unpadded ids sort apart from
    their numeric order ("10_2" < "2_10")."""
    nodes = [Node(f"{r}_{c}", float(c), float(r)) for r in range(rows) for c in range(cols)]
    segs = []
    for r in range(rows):
        for c in range(cols):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < rows and c + dc < cols:
                    u, v = f"{r}_{c}", f"{r + dr}_{c + dc}"
                    segs.append(Segment(f"{u}-{v}", u, v, 1.0))
    return PathGraph(nodes, segs)


def _bench_like_queries(graph, seed, n=8):
    """(query, live bands) pairs on a ``_bench_like_world`` graph,
    alternately offline and realtime, with some bands stale or missing."""
    rng = np.random.default_rng(100 + seed)
    names = sorted(graph.nodes)
    t_ms = (3 * 1440 + 480) * 60_000
    for i in range(n):
        t_ms += int(rng.integers(500, 2000))
        live = {}
        for k in range(8):
            if rng.random() < 0.9:  # otherwise missing
                age = int(rng.choice([0, 2_000, 5_001, 30_000]))
                live[f"cam{k}"] = _bands(f"cam{k}", float(rng.uniform(0, 0.1)), t_ms - age, grid=(4, 3))
        o, g = rng.choice(len(names), size=2, replace=False)
        if i % 2:
            query = PlanQuery(names[o], names[g], mode="realtime", t_ms=t_ms,
                              include_moving=bool(rng.random() < 0.5))
        else:
            query = PlanQuery(names[o], names[g], t_star=int(rng.integers(0, 1440)))
        yield query, live


class TestPlanMatchesParent:
    @pytest.mark.parametrize("seed", range(4))
    def test_bench_like_world_offline_and_realtime(self, seed):
        graph, stores = _bench_like_world()
        for query, live in _bench_like_queries(graph, seed):
            got = _assert_plan_matches_parent(graph, query, stores, live)
            assert got.excluded_cameras == ["cam7"]

    def test_landmarks_cut_settled_nodes_below_a_quarter(self):
        # The bound steers the search toward the goal: summed over these
        # worlds it settled 0.14 of the parent's nodes (0.12-0.18 each).
        settled = parent_settled = 0
        for seed in range(4):
            graph, stores = _bench_like_world(seed=seed)
            for query, live in _bench_like_queries(graph, seed):
                settled += plan_path(graph, query, stores, live).expansions
                parent_settled += _parent_plan_counted(graph, query, stores, live)[1]
        assert settled <= parent_settled / 4

    @pytest.mark.parametrize("shape", [(1, 12), (5, 5), (6, 11), (12, 12)])
    def test_unit_grids_full_of_exact_ties(self, shape):
        graph = _unit_grid(*shape)
        names = sorted(graph.nodes)
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        for _ in range(25):
            o, g = rng.choice(len(names), size=2, replace=False)
            _assert_plan_matches_parent(graph, PlanQuery(names[o], names[g]))

    @pytest.mark.parametrize("order", ["sorted", "reversed"])
    @pytest.mark.parametrize("split", ["same-terms", "base-and-activity"])
    def test_parallel_segments_of_equal_cost_take_the_smaller_id(self, order, split):
        # A-B-C-D with two parallel B-C segments of equal cost. With
        # "base-and-activity" one costs 1.0 + 0.0 uncovered and the other
        # 0.5 + 0.5 under a camera, which sum to the same float.
        nodes = [Node(n, 0, 0) for n in "ABCD"]
        if split == "same-terms":
            pair = [Segment("bc1", "B", "C", 1.0), Segment("bc2", "C", "B", 1.0)]
        else:
            pair = [Segment("bc1", "B", "C", 0.5, camera_id="cam"), Segment("bc2", "C", "B", 1.0)]
        if order == "reversed":
            pair.reverse()
        graph = PathGraph(nodes, [Segment("ab", "A", "B", 1.0), *pair, Segment("cd", "C", "D", 1.0)])
        stores = {"cam": _store_with("cam", 0.5)}
        got = _assert_plan_matches_parent(graph, PlanQuery("A", "D", t_star=600), stores)
        assert [s.segment_id for s in got.segments] == ["ab", "bc1", "cd"]
        assert got.total_cost == 3.0
        got = _assert_plan_matches_parent(graph, PlanQuery("D", "A", t_star=600), stores)
        assert [s.segment_id for s in got.segments] == ["cd", "bc1", "ab"]

    def test_later_offer_of_equal_cost_and_fewer_edges_wins(self):
        # G is first offered at cost 2 over three edges via the free A-X-Y
        # arm, then at cost 2 over two edges via Z, which must replace it.
        nodes = [Node(n, 0, 0) for n in "AGXYZ"]
        segs = [
            Segment("ax", "A", "X", 1.0, base_cost=0.0),
            Segment("xy", "X", "Y", 1.0, base_cost=0.0),
            Segment("yg", "Y", "G", 2.0),
            Segment("az", "A", "Z", 1.0),
            Segment("zg", "Z", "G", 1.0),
        ]
        got = _assert_plan_matches_parent(PathGraph(nodes, segs), PlanQuery("A", "G"))
        assert got.nodes == ["A", "Z", "G"]

    def test_unreachable_goal_counts_every_settled_node(self):
        graph = _diamond()
        stores = {"cam_busy": _store_with("cam_busy", 0.0), "cam_dead": _store_with("cam_dead", 0.0)}
        got = _assert_plan_matches_parent(graph, PlanQuery("A", "D"), stores)
        assert not got.found and got.expansions == 1


_BASES = [0.0, 1e-300, 1e-12, 1.0, 1.0 + 2.0**-40, 1.0 - 2.0**-40, 1e12]


def _search_world(n, edges, levels, lam, realtime, origin, goal, ages):
    """Graph, query, stores and live bands of a ``_search_case``: nodes
    ``n0``..``n{n-1}``, segments ``(u, v, base cost, camera k or None)``,
    cameras c0 and c1 learned and live at ``levels``, c2 never active, and
    one live band per camera of the given age in ms (None for missing)."""
    names = [f"n{i}" for i in range(n)]
    segs = [
        Segment(f"e{k}", names[u], names[v], 1.0, camera_id=None if cam is None else f"c{cam}", base_cost=base)
        for k, (u, v, base, cam) in enumerate(edges)
    ]
    graph = PathGraph([Node(name, 0.0, 0.0) for name in names], segs)
    cams = {f"c{k}": level for k, level in enumerate((*levels, 0.0))}
    stores = {cam: _store_with(cam, level) for cam, level in cams.items()}
    t_ms = 600 * 60_000
    live = {
        cam: _bands(cam, cams[cam], t_ms - age) for cam, age in zip(cams, ages) if age is not None
    }
    if realtime:
        query = PlanQuery(names[origin], names[goal], mode="realtime", t_ms=t_ms, lam=lam)
    else:
        query = PlanQuery(names[origin], names[goal], t_star=600, lam=lam)
    return graph, query, stores, live


@st.composite
def _search_case(draw):
    """Small random graphs (self-loops, parallel segments, several
    components) or grids, with base costs from ``_BASES``."""
    if draw(st.booleans()):
        rows, cols = draw(st.integers(1, 5)), draw(st.integers(2, 5))
        n = rows * cols
        pairs = [(i, i + 1) for i in range(n) if (i + 1) % cols] + [(i, i + cols) for i in range(n - cols)]
    else:
        n = draw(st.integers(2, 8))
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=16))
    base = st.sampled_from(_BASES)
    if draw(st.booleans()):
        base = st.just(draw(base))
    cam = st.sampled_from([None, 0, 1, 2])
    edges = tuple((u, v, draw(base), draw(cam)) for u, v in pairs)
    level = st.one_of(st.sampled_from([0.0, 0.01, 1.0]), st.floats(0.002, 1.0))
    lam = st.one_of(st.sampled_from([1.0, 3e16]), st.floats(1e-3, 3e16))
    origin, goal = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    ages = tuple(draw(st.sampled_from([None, 0, 4_000, 6_000])) for _ in range(3))
    return n, edges, (draw(level), draw(level)), draw(lam), draw(st.booleans()), origin, goal, ages


# A 3 x 3 unit grid, realtime at lam = 3e16: two routes cost the same
# float, and without the rounding guard the bounded search returns the one
# that loses the tie-break (n8-n7-n6-n3 in place of n8-n5-n4-n3).
_ROUNDING_GUARD_CASE = (
    9,
    (
        (0, 1, 1.0, 0), (1, 2, 1.0, None), (3, 4, 1.0, None), (4, 5, 1.0, None),
        (6, 7, 1.0, 1), (7, 8, 1.0, None), (0, 3, 1.0, 1), (1, 4, 1.0, 1),
        (2, 5, 1.0, 1), (3, 6, 1.0, None), (4, 7, 1.0, 0), (5, 8, 1.0, 1),
    ),
    (0.6445589600466068, 0.9469185390032134),
    3e16,
    True,
    8,
    3,
    (0, None, 6000),
)


class TestBoundedSearchMatchesParent:
    @given(case=_search_case())
    @example(case=_ROUNDING_GUARD_CASE)
    @settings(max_examples=400, deadline=None)
    def test_route_segments_and_cost_bit_identical(self, case):
        _assert_plan_matches_parent(*_search_world(*case))


class TestPlanExplanations:
    def test_excluded_and_stale_cameras_listed(self):
        graph, stores = _grid_world()
        t_ms = 3 * 1440 * 60_000
        live = {
            "c0": _bands("c0", 1.0, t_ms, grid=(3, 2)),
            "c2": _bands("c2", 1.0, t_ms - 60_000, grid=(3, 2)),
            "c3": _bands("c3", 1.0, t_ms, grid=(3, 2)),
        }
        res = plan_path(graph, PlanQuery("00_00", "11_00", mode="realtime", t_ms=t_ms), stores, live)
        assert res.found
        assert res.excluded_cameras == ["c3"]
        assert res.stale_cameras == ["c1", "c2"]

    def test_offline_query_has_no_stale_cameras(self):
        graph, stores = _grid_world()
        res = plan_path(graph, PlanQuery("00_00", "11_11", t_star=600), stores)
        assert res.excluded_cameras == ["c3"]
        assert res.stale_cameras == []

    def test_not_found_result_still_explains(self):
        graph = _diamond()
        stores = {"cam_busy": _store_with("cam_busy", 0.0), "cam_dead": _store_with("cam_dead", 0.0)}
        res = plan_path(graph, PlanQuery(origin="A", goal="D"), stores)
        assert not res.found
        assert res.excluded_cameras == ["cam_busy", "cam_dead"]


class TestNonFiniteLiveBands:
    def _world(self):
        # Cheap arm A-B-D (cam_busy, base 1+1), detour A-C-D (cam_dead, base 5+5).
        graph = _diamond()
        stores = {
            "cam_busy": _store_with("cam_busy", 0.5, minutes=range(0, 1440, 60)),
            "cam_dead": _store_with("cam_dead", 0.5, minutes=range(0, 1440, 60)),
        }
        t_ms = 600 * 60_000
        live = {"cam_busy": _bands("cam_busy", math.nan, t_ms), "cam_dead": _bands("cam_dead", 0.1, t_ms)}
        return graph, stores, live, t_ms

    def test_nan_band_is_priced_long_term_only(self):
        graph, stores, live, t_ms = self._world()
        res = plan_path(graph, PlanQuery("A", "D", mode="realtime", t_ms=t_ms), stores, live)
        assert res.nodes == ["A", "B", "D"]
        assert res.degraded
        assert res.stale_cameras == ["cam_busy"]
        assert res.total_cost == pytest.approx(2 * (1.0 + 0.5 * 0.5))

    def test_negative_band_is_priced_long_term_only(self):
        # A negative live price would make an edge cheaper than its
        # traversal cost, below the search's bound.
        graph, stores, live, t_ms = self._world()
        live["cam_busy"] = _bands("cam_busy", -0.25, t_ms)
        res = plan_path(graph, PlanQuery("A", "D", mode="realtime", t_ms=t_ms), stores, live)
        assert res.stale_cameras == ["cam_busy"]
        assert res.total_cost == pytest.approx(2 * (1.0 + 0.5 * 0.5))

    def test_zero_long_term_weight_ignores_an_overflowed_long_term_price(self):
        # lam times cam_busy's learned 4.0 overflows to inf; with w1 = 0
        # that term must add 0, not 0 * inf = NaN, which dropped the camera.
        graph = _diamond()
        stores = {"cam_busy": _store_with("cam_busy", 4.0), "cam_dead": _store_with("cam_dead", 0.0)}
        query = PlanQuery("A", "D", mode="realtime", t_ms=600 * 60_000, w1=0.0, w2=1.0, lam=1e308)
        res = plan_path(graph, query, stores, {})
        assert res.found and res.nodes == ["A", "B", "D"]
        assert res.total_cost == 2.0
        assert res.excluded_cameras == ["cam_dead"]
        assert res.stale_cameras == ["cam_busy", "cam_dead"]

    @pytest.mark.parametrize("mode", ["offline", "realtime"])
    def test_overflowed_price_rejected(self, mode):
        # lam times the learned means overflows to inf. Every route then
        # tied at inf, and the tie-break by hops picked A-B-D as found.
        graph = _diamond()
        stores = {"cam_busy": _store_with("cam_busy", 40.0), "cam_dead": _store_with("cam_dead", 2.0)}
        query = PlanQuery("A", "D", mode=mode, t_star=600, t_ms=600 * 60_000, lam=1e308)
        with pytest.raises(InvalidParameterError, match=r"camera 'cam_\w+'.*lam=1e\+308"):
            plan_path(graph, query, stores)

    def test_overflowed_route_cost_rejected(self):
        # Each arm of the diamond alone, under the one camera whose price
        # overflows.
        stores = {"cam_busy": _store_with("cam_busy", 40.0), "cam_dead": _store_with("cam_dead", 2.0)}
        for route in (["ab", "bd"], ["ac", "cd"]):
            arm = [seg for sid, seg in _diamond().segments.items() if sid in route]
            graph = PathGraph([Node(n, 0, 0) for n in "ABCD"], arm)
            with pytest.raises(InvalidParameterError, match=rf"camera '{arm[0].camera_id}'.*lam=1e\+308"):
                plan_path(graph, PlanQuery("A", "D", t_star=600, lam=1e308), stores)

    def test_route_cost_of_nan_band_is_degraded_and_finite(self):
        graph, stores, live, t_ms = self._world()
        res = plan_path(graph, PlanQuery("A", "D", mode="realtime", t_ms=t_ms), stores, live)
        assert res.degraded
        assert [s.activity for s in res.segments] == [0.5 * 0.5, 0.5 * 0.5]


class TestCostMap:
    def _static(self):
        cells = np.zeros((10, 12), dtype=np.uint8)
        cells[0, :] = 254  # lethal wall
        cells[5, 5] = 100
        cells[9, 11] = 255  # unknown
        return CostMap(resolution_m=0.5, origin_x=0.0, origin_y=0.0, cells=cells)

    def test_round_trip_exact(self, tmp_path):
        m = self._static()
        write_costmap(m, tmp_path / "map.pgm", tmp_path / "map.yaml")
        back = read_costmap(tmp_path / "map.pgm", tmp_path / "map.yaml")
        np.testing.assert_array_equal(back.cells, m.cells)
        assert back.resolution_m == m.resolution_m
        assert (back.origin_x, back.origin_y) == (m.origin_x, m.origin_y)

    def test_reads_a_pgm_with_header_comments(self, tmp_path):
        # ROS map_saver writes a comment line after the magic.
        rng = np.random.default_rng(9)
        pixels = rng.integers(0, 256, (13, 17), dtype=np.uint8)
        header = b"P5\n# CREATOR: map_saver.cpp 0.500 m/pix\n17 13\n# max\n255\n"
        (tmp_path / "map.pgm").write_bytes(header + pixels.tobytes())
        (tmp_path / "map.yaml").write_text("resolution: 0.5\norigin: [1.0, 2.0, 0.0]\n")
        back = read_costmap(tmp_path / "map.pgm", tmp_path / "map.yaml")
        np.testing.assert_array_equal(back.cells, 255 - pixels)
        assert (back.resolution_m, back.origin_x, back.origin_y) == (0.5, 1.0, 2.0)

    @pytest.mark.parametrize(
        "data",
        [b"P2\n2 1\n255\n\x00\x00", b"P5\n2 1\n65535\n\x00\x00", b"P5\n2 1\n255\n\x00", b"P5\n2"],
        ids=["ascii-magic", "16-bit", "truncated-raster", "truncated-header"],
    )
    def test_malformed_pgm_rejected(self, tmp_path, data):
        (tmp_path / "map.pgm").write_bytes(data)
        (tmp_path / "map.yaml").write_text("resolution: 0.5\n")
        with pytest.raises(RejectedInputError):
            read_costmap(tmp_path / "map.pgm", tmp_path / "map.yaml")

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "- 0.5\n- [0.0, 0.0, 0.0]\n",
            "origin: [0.0, 0.0, 0.0]\n",
            "resolution: abc\n",
            "resolution: 0.5\norigin: [1.0]\n",
            "resolution: 0.5\norigin: 1.0\n",
            "resolution: .nan\n",
            "resolution: 0.5\norigin: [.nan, 0.0, 0.0]\n",
            "resolution: 0.5\norigin: [0.0, -.inf, 0.0]\n",
            "resolution: [0.5\n",
            "resolution: true\n",
            'resolution: "0.05"\n',
            "resolution: 0.5\norigin: [true, 0, 0]\n",
        ],
        ids=[
            "empty",
            "list",
            "no-resolution",
            "text-resolution",
            "short-origin",
            "scalar-origin",
            "nan-resolution",
            "nan-origin",
            "infinite-origin",
            "not-yaml",
            "bool-resolution",
            "string-resolution",
            "bool-origin",
        ],
    )
    def test_malformed_yaml_rejected(self, tmp_path, text):
        # An empty or list file raised AttributeError, a missing resolution
        # KeyError, text ValueError and a short origin IndexError; a NaN
        # resolution or origin loaded, and so did a bool or a quoted number,
        # which float() took.
        (tmp_path / "map.pgm").write_bytes(b"P5\n2 1\n255\n\x00\x00")
        (tmp_path / "map.yaml").write_text(text)
        with pytest.raises(RejectedInputError):
            read_costmap(tmp_path / "map.pgm", tmp_path / "map.yaml")

    def test_yaml_without_origin_reads_origin_zero(self, tmp_path):
        (tmp_path / "map.pgm").write_bytes(b"P5\n2 1\n255\n\x00\x00")
        (tmp_path / "map.yaml").write_text("resolution: 2\n")
        back = read_costmap(tmp_path / "map.pgm", tmp_path / "map.yaml")
        assert (back.resolution_m, back.origin_x, back.origin_y) == (2.0, 0.0, 0.0)

    def test_zero_activity_is_byte_identical_to_static(self, tmp_path):
        m = self._static()
        write_costmap(m, tmp_path / "static.pgm", tmp_path / "static.yaml")
        combined, report = splat_activity(m, {"cam0": _frame([[0.0, 0.0], [0.0, 0.0]])}, {"cam0": np.eye(3)})
        write_costmap(combined, tmp_path / "combined.pgm", tmp_path / "combined.yaml")
        assert (tmp_path / "static.pgm").read_bytes() == (tmp_path / "combined.pgm").read_bytes()
        assert report.cells_touched == 0

    def test_single_block_maps_to_hand_computed_cell(self):
        m = self._static()
        # Block centers in block units; homography scales blocks to meters.
        h = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 1.5], [0.0, 0.0, 1.0]])
        frame = _frame([[0.0, 0.0], [0.0, 0.5]])  # block (1, 1) active
        combined, report = splat_activity(m, {"cam0": frame}, {"cam0": h})
        # Center (1.5, 1.5) -> world (2.0, 3.0) -> cell col 4, row 6.
        assert combined.cells[6, 4] == 127  # round(0.5 * 254)
        diff = combined.cells.astype(int) - m.cells.astype(int)
        assert diff[6, 4] == 127
        assert np.count_nonzero(diff) == 1
        assert report.cells_touched == 1
        assert report.blocks_skipped == 0

    def test_lethal_cell_stays_lethal(self):
        m = self._static()
        h = np.array([[1.0, 0.0, -0.5], [0.0, 1.0, -0.5], [0.0, 0.0, 1.0]])
        # Block (0,0) center (0.5, 0.5) -> world (0, 0) -> cell (0,0): lethal wall.
        frame = _frame([[0.3, 0.0], [0.0, 0.0]])
        combined, _ = splat_activity(m, {"cam0": frame}, {"cam0": h})
        assert combined.cells[0, 0] == 254

    def test_out_of_bounds_blocks_counted(self):
        m = self._static()
        h = np.array([[1.0, 0.0, 100.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        frame = _frame([[0.3, 0.4], [0.1, 0.2]])
        _, report = splat_activity(m, {"cam0": frame}, {"cam0": h})
        assert report.blocks_skipped == 4
        assert report.cells_touched == 0

    def test_activity_clipped_to_lethal(self):
        m = CostMap(0.5, 0.0, 0.0, np.zeros((4, 4), dtype=np.uint8))
        h = np.eye(3)
        frame = _frame([[50.0]])
        combined, _ = splat_activity(m, {"cam0": frame}, {"cam0": h})
        assert combined.cells.max() == 254

    def test_duplicate_node_id_rejected(self):
        nodes = [Node("A", 0, 0), Node("B", 1, 0), Node("A", 5, 5)]
        with pytest.raises(RejectedInputError, match="duplicate node id 'A'"):
            PathGraph(nodes, [Segment("ab", "A", "B", 1.0)])

    @pytest.mark.parametrize(
        "length, base", [(math.nan, None), (1.0, math.nan), (math.inf, None), (1.0, math.inf)]
    )
    def test_nan_segment_cost_rejected(self, length, base):
        with pytest.raises(InvalidParameterError):
            Segment("s", "A", "B", length, base_cost=base)

    def test_duplicate_segment_id_rejected(self):
        nodes = [Node("A", 0, 0), Node("B", 1, 0)]
        with pytest.raises(RejectedInputError, match="duplicate"):
            PathGraph(nodes, [Segment("s", "A", "B", 1.0), Segment("s", "A", "B", 5.0)])

    def test_neighbors_built_once_in_segment_order(self):
        nodes = [Node(n, 0, 0) for n in "ABC"]
        segs = [
            Segment("ab", "A", "B", 1.0),
            Segment("ca", "C", "A", 2.0),
            Segment("aa", "A", "A", 3.0),
            Segment("bc", "B", "C", 1.0),
        ]
        graph = PathGraph(nodes, segs)
        by_id = graph.segments
        assert graph.neighbors("A") == (
            ("B", by_id["ab"]),
            ("C", by_id["ca"]),
            ("A", by_id["aa"]),
            ("A", by_id["aa"]),
        )
        assert graph.neighbors("C") == (("A", by_id["ca"]), ("B", by_id["bc"]))
        assert graph.neighbors("B") is graph.neighbors("B")

    def test_graph_json_round_trip(self):
        obj = {
            "nodes": [{"id": "A", "x": 0, "y": 0}, {"id": "B", "x": 3, "y": 4}],
            "edges": [{"id": "ab", "u": "A", "v": "B", "len_m": 5, "cam": "cam0"}],
        }
        graph = PathGraph.from_json_obj(json.loads(json.dumps(obj)))
        assert set(graph.nodes) == {"A", "B"}
        assert graph.segments["ab"].camera_id == "cam0"
        assert graph.segments["ab"].traversal_cost == 5.0
        # Integers load as floats.
        assert graph.nodes["B"] == Node("B", 3.0, 4.0)
        assert type(graph.nodes["B"].x) is type(graph.segments["ab"].length_m) is float


def _graph_obj(*, node=None, edge=None, more_edges=()):
    """Two nodes and one edge, with ``node`` and ``edge`` overriding or
    (for a value of ``...``) dropping keys of the first of each."""
    def merged(base, extra):
        return {k: v for k, v in {**base, **(extra or {})}.items() if v is not ...}

    return {
        "nodes": [merged({"id": "A", "x": 0.0, "y": 0.0}, node), {"id": "B", "x": 1.0, "y": 0.0}],
        "edges": [merged({"id": "ab", "u": "A", "v": "B", "len_m": 1.0}, edge), *more_edges],
    }


# Each loaded without complaint, or raised a bare OverflowError, KeyError
# or TypeError, before the description's values went through checked.
_BAD_GRAPHS = {
    "len_m true": _graph_obj(edge={"len_m": True}),
    "len_m string": _graph_obj(edge={"len_m": "2"}),
    "len_m past float": _graph_obj(edge={"len_m": 10**400}),
    "len_m missing": _graph_obj(edge={"len_m": ...}),
    "base_cost string": _graph_obj(edge={"base_cost": "1"}),
    "node x string nan": _graph_obj(node={"x": "nan"}),
    "node y nan": _graph_obj(node={"y": math.nan}),
    "node y missing": _graph_obj(node={"y": ...}),
    "mixed camera ids": _graph_obj(
        edge={"cam": 3}, more_edges=[{"id": "ba", "u": "B", "v": "A", "len_m": 1.0, "cam": "c"}]
    ),
    "camera id list": _graph_obj(edge={"cam": ["c"]}),
    "edges missing": {"nodes": _graph_obj()["nodes"]},
    "edge not an object": {**_graph_obj(), "edges": [["A", "B"]]},
    "not an object": [],
}


@pytest.mark.parametrize("obj", list(_BAD_GRAPHS.values()), ids=list(_BAD_GRAPHS))
def test_malformed_graph_description_rejected(obj):
    with pytest.raises(RejectedInputError, match="bad graph description"):
        PathGraph.from_json_obj(obj)


_coef = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, 2.0, -0.25, 3.0]),
    # Away from zero, so no projected coordinate overflows.
    st.floats(-8.0, 8.0).filter(lambda v: v == 0.0 or abs(v) > 1e-6),
)


@st.composite
def _splat_case(draw):
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    lethal = draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)), max_size=4))
    cells = np.zeros((rows, cols), dtype=np.uint8)
    for r, c in lethal:
        cells[r, c] = draw(st.sampled_from([LETHAL_COST, 255, 100]))
    static = CostMap(
        draw(st.sampled_from([0.25, 0.3, 0.5, 1.0])),
        draw(st.sampled_from([0.0, -1.0, 0.75])),
        draw(st.sampled_from([0.0, -1.0, 2.5])),
        cells,
    )
    frames, homographies = {}, {}
    for k in range(draw(st.integers(1, 3))):
        gh, gw = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        density = np.array(
            draw(st.lists(
                st.one_of(st.just(0.0), st.floats(-1.0, 3.0), st.sampled_from([0.5 / 254, 1.5 / 254, 1.0])),
                min_size=gh * gw, max_size=gh * gw,
            ))
        ).reshape(gh, gw)
        h = np.array(draw(st.lists(_coef, min_size=9, max_size=9))).reshape(3, 3)
        w_row = draw(st.sampled_from(["free", "affine", "zero", "line"]))
        if w_row == "affine":
            h[2] = [0.0, 0.0, 1.0]
        elif w_row == "zero":
            h[2] = 0.0
        elif w_row == "line":  # w = 0 on the block column bx = 1
            h[2] = [1.0, 0.0, -1.5]
        frames[f"cam{k}"] = _frame(density)
        homographies[f"cam{k}"] = h
    return static, frames, homographies


# Block (2, 3) projects to within one rounding of the cell edge x = 0:
# summing its three products in another order than the per-block
# product moves it off the map.
_EDGE_CASE = (
    CostMap(0.5, 0.0, 0.0, np.zeros((8, 8), dtype=np.uint8)),
    {"cam0": _frame(np.full((4, 4), 0.5))},
    {"cam0": np.array([[0.47, 0.14, -1.665], [0.0, 0.25, 0.5], [0.0, 0.0, 1.0]])},
)


class TestSplatMatchesReference:
    @given(case=_splat_case())
    @example(case=_EDGE_CASE)
    @settings(max_examples=300, deadline=None)
    def test_cells_and_counts_bit_identical(self, case):
        _assert_splat_matches_reference(*case)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_density_rejected_naming_camera(self, bad, monkeypatch):
        m = CostMap(0.5, 0.0, 0.0, np.zeros((4, 4), dtype=np.uint8))
        frames = {"cam9": _frame([[bad, 0.1]]), "cam0": _frame([[0.2, 0.1]]), "cam7": _frame([[0.3, bad]])}

        def no_projection(*args):
            raise AssertionError("projected before every density was checked")

        monkeypatch.setattr("motionbands.planning._block_cells", no_projection)
        homographies = {cam: np.eye(3) for cam in frames}
        with pytest.raises(RejectedInputError, match="activity frame for cam7 "):
            splat_activity(m, frames, homographies)
        # A bad homography of a later camera is reported before any density.
        homographies["cam9"] = np.full((3, 3), math.nan)
        with pytest.raises(RejectedInputError, match="homography for cam9"):
            splat_activity(m, frames, homographies)

    def test_missing_homography_rejected_naming_camera(self, monkeypatch):
        m = CostMap(0.5, 0.0, 0.0, np.zeros((4, 4), dtype=np.uint8))
        frames = {"cam0": _frame([[0.2]]), "cam3": _frame([[0.4]])}

        def no_projection(*args):
            raise AssertionError("projected before every camera was checked")

        monkeypatch.setattr("motionbands.planning._block_cells", no_projection)
        with pytest.raises(RejectedInputError, match="cam3"):
            splat_activity(m, frames, {"cam0": np.eye(3)})

    def test_non_finite_homography_rejected_naming_camera(self):
        m = CostMap(0.5, 0.0, 0.0, np.zeros((4, 4), dtype=np.uint8))
        h = np.eye(3)
        h[0, 2] = math.nan
        with pytest.raises(RejectedInputError, match="cam0"):
            splat_activity(m, {"cam0": _frame([[0.2]])}, {"cam0": h})


def _bench_like_splat(seed, grid=(30, 40), cams=8):
    """Benchmark-shaped refresh: affine cameras over a 0.25 m map with a
    1 m border, each view widened to reach past the map's edge."""
    rng = np.random.default_rng(seed)
    gh, gw = grid
    cells = np.zeros((124, 124), dtype=np.uint8)
    cells[10:18, 5:7] = LETHAL_COST
    static = CostMap(0.25, -1.0, -1.0, cells)
    homographies = {}
    for k in range(cams):
        x0, y0 = rng.uniform(-2.0, 28.0, 2)
        sx, sy = rng.uniform(0.1, 0.4, 2)
        homographies[f"cam{k}"] = np.array([[sx, 0.0, x0], [0.0, sy, y0], [0.0, 0.0, 1.0]])
    return static, homographies


def _refresh_frames(rng, homographies, grid=(30, 40)):
    return {
        cam: _frame(rng.random(grid) * 0.05 * (rng.random(grid) < 0.35)) for cam in homographies
    }


def _assert_splat_matches_reference(static, frames, homographies):
    want_cells, want_touched, want_skipped = _reference_splat(static, frames, homographies)
    got, report = splat_activity(static, frames, homographies)
    np.testing.assert_array_equal(got.cells, want_cells)
    assert (report.cells_touched, report.blocks_skipped) == (want_touched, want_skipped)


class TestSplatCache:
    """Each camera's block cells are projected once per homography, grid
    and map; a change to any of them projects again."""

    @pytest.fixture(autouse=True)
    def _empty_cache(self):
        _block_cells.cache_clear()

    def _misses_after(self, static, frames, homographies):
        _assert_splat_matches_reference(static, frames, homographies)
        return _block_cells.cache_info().misses

    def test_repeated_refreshes_hit_the_cache_and_match_the_reference(self):
        static, homographies = _bench_like_splat(1)
        rng = np.random.default_rng(2)
        misses = self._misses_after(static, _refresh_frames(rng, homographies), homographies)
        assert misses == len(homographies)
        for _ in range(5):
            assert self._misses_after(static, _refresh_frames(rng, homographies), homographies) == misses
        assert _block_cells.cache_info().hits == 5 * len(homographies)

    def test_homography_mutated_in_place_projects_again(self):
        static, homographies = _bench_like_splat(3)
        frames = _refresh_frames(np.random.default_rng(4), homographies)
        misses = self._misses_after(static, frames, homographies)
        homographies["cam5"][0, 2] += 3.0
        homographies["cam5"][1, 1] *= 0.5
        assert self._misses_after(static, frames, homographies) == misses + 1

    @pytest.mark.parametrize(
        "change",
        [
            lambda m: CostMap(m.resolution_m, m.origin_x + 1.3, m.origin_y, m.cells),
            lambda m: CostMap(m.resolution_m, m.origin_x, m.origin_y - 0.6, m.cells),
            lambda m: CostMap(0.3, m.origin_x, m.origin_y, m.cells),
            lambda m: CostMap(m.resolution_m, m.origin_x, m.origin_y, m.cells[:, :70]),
            lambda m: CostMap(m.resolution_m, m.origin_x, m.origin_y, m.cells[:60].copy()),
        ],
        ids=["origin-x", "origin-y", "resolution", "columns", "rows"],
    )
    def test_new_map_geometry_projects_again(self, change):
        static, homographies = _bench_like_splat(5)
        frames = _refresh_frames(np.random.default_rng(6), homographies)
        misses = self._misses_after(static, frames, homographies)
        assert self._misses_after(change(static), frames, homographies) == misses + len(homographies)

    def test_new_grid_shape_projects_again(self):
        static, homographies = _bench_like_splat(7)
        rng = np.random.default_rng(8)
        misses = self._misses_after(static, _refresh_frames(rng, homographies), homographies)
        frames = _refresh_frames(rng, homographies)
        frames["cam2"] = _frame(rng.random((40, 30)))
        frames["cam6"] = _frame(rng.random((30, 41)))
        assert self._misses_after(static, frames, homographies) == misses + 2

    def test_memory_order_is_part_of_the_key(self):
        # BLAS may round a Fortran-ordered matrix's products differently:
        # on OpenBLAS's Haswell kernel, block (3, 2) lands in cell column 3
        # from the C-ordered matrix and 4 from the Fortran-ordered one. The
        # Fortran bytes of h are the C bytes of its transpose.
        static = CostMap(0.5, 0.0, 0.0, np.zeros((8, 8), dtype=np.uint8))
        frames = {"cam0": _frame(np.full((4, 4), 0.5))}
        h = np.array([[0.27, 0.73, -1.23], [0.0, 0.25, 0.5], [0.0, 0.0, 1.0]])
        for matrix in (np.asfortranarray(h), h, np.ascontiguousarray(h.T), np.asfortranarray(h.T)):
            _assert_splat_matches_reference(static, frames, {"cam0": matrix})
        assert _block_cells.cache_info().misses == 4

    def test_cached_cells_are_read_only(self):
        static, homographies = _bench_like_splat(11)
        splat_activity(static, _refresh_frames(np.random.default_rng(12), homographies), homographies)
        geometry = (static.origin_x, static.origin_y, static.resolution_m, static.cells.shape)
        cells = _block_cells(homographies["cam0"].tobytes(), "C", (30, 40), geometry)
        assert _block_cells.cache_info().hits == 1
        with pytest.raises(ValueError):
            cells[0] = 7
