"""Activity-aware path planning over a segment graph, and cost-map export.

Each graph segment may be viewed by one camera. Off-line planning prices a
segment by the camera's learned mean activity at the queried minute of
day, and excludes outright any segment whose time-collapsed binary profile
is empty: if no person ever crosses a location, the planner treats it as
untraversable. Real-time planning blends that long-term cost with the
current short-term bands.

Pricing is per camera: per query, ``_price_cameras`` lists one activity
by camera slot, ``None`` for an excluded camera and a last 0.0 for
uncovered segments, which the search reads as it is, and names the stale
cameras. A segment costs its traversal cost plus its slot's activity, so
a query costs per camera and expanded node, not per segment. Support
masks are cached by the stores.

The planner finds the route a uniform-cost search over the non-negative
additive edge costs would: among routes of equal cost it takes the one
with fewer edges, then the one whose node ids are smaller in order, and,
between parallel segments, the smaller id of the last segment. The search
runs on an integer index that ``PathGraph`` builds once: node ranks and
segment slots number the ids in sorted order, so integer keys tie-break
exactly as the ids would, and each node's adjacency holds (neighbour rank,
segment slot, traversal cost, camera slot). The search loop makes no
calls besides the heap's, and a key is pushed only if it beats every key
already offered to its node.

The search is A* with landmark bounds (ALT: Goldberg and Harrelson, SODA
2005). At build, ``PathGraph`` runs four Dijkstras over the traversal
costs, from node rank 0 and then each time from the node farthest from the
landmarks so far. Per query, every node's bound on the cost still to reach
the goal is ``(1 - 2**-20) * max |D_L[goal] - D_L[v]|`` over landmarks L:
no edge costs less than its traversal cost, so the bound never
overestimates. On the benchmark's 30 x 30 floor it cuts the nodes settled
per route from about 586 to about 124; eight landmarks settled 114 and
were no faster. The bound reorders the search but not its tie-breaks, and a
rounding guard keeps routes, segments and costs bit-identical to the
uniform-cost search: landmarks are kept only when every distance is within
2**30 times the smallest positive traversal cost, and a route costing more
than that is searched again without a bound (see ``_search``).

Cost maps follow the ROS map-server convention: a P5 PGM raster plus a
YAML metadata file. Cell costs run 0 (free) to 254 (lethal), 255 meaning
unknown, encoded on disk as ``pixel = 255 - cost``. The activity layer is
splatted from block centers through per-camera homographies and combined
with the static layer by element-wise max, so lethal cells stay lethal.
An installed camera does not move, so its map cell per block is projected
once and kept in an LRU cache of ``_PROJECTION_CACHE_SIZE`` entries, keyed
on the homography's float64 bytes and memory order, the block grid's shape
and the map's origin, resolution and shape. Each block keeps its own
3x3 @ 3x1 product: a (3, 3) @ (3, n) product, or the sums written out,
would round differently and could move a block across a cell edge.
"""

from __future__ import annotations

import functools
import heapq
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np
import yaml

from .config import checked
from .errors import InvalidParameterError, RejectedInputError, UnknownSegmentError
from .filters import BandOutputs
from .isochron import MINUTES_PER_DAY, IsochronalStore, minute_of_day
from .motion import MotionFrame, block_mean

LETHAL_COST = 254

# Landmarks per graph: per benchmark route 2 settled 283 nodes, 4 settled
# 124, and 8 settled 114 in no less time.
_LANDMARKS = 4
# Bounds are shrunk by this factor, and trusted only while every distance
# involved is at most _EXACT_SPAN times the smallest positive traversal
# cost, so float rounding never makes them overestimate (see ``_search``).
_BOUND_SHRINK = 1.0 - 2.0**-20
_EXACT_SPAN = 2.0**30
# Cached block projections: four per camera of the paper's 32-camera testbed.
_PROJECTION_CACHE_SIZE = 128


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Node:
    node_id: str
    x: float
    y: float


@dataclass(frozen=True)
class Segment:
    segment_id: str
    u: str
    v: str
    length_m: float
    camera_id: str | None = None
    base_cost: float | None = None  # defaults to length_m

    def __post_init__(self) -> None:
        checked(f"segment {self.segment_id}: length_m", self.length_m, above=True)
        if self.base_cost is not None:
            checked(f"segment {self.segment_id}: base_cost", self.base_cost)

    @property
    def traversal_cost(self) -> float:
        return self.length_m if self.base_cost is None else self.base_cost


class PathGraph:
    """Undirected waypoint graph with per-segment camera coverage.

    It also holds the planner's integer index and landmark distances (see
    the module docstring). Camera slots number ``camera_ids``; uncovered
    segments take the slot one past the last camera.
    """

    def __init__(self, nodes: list[Node], segments: list[Segment]):
        self.nodes: dict[str, Node] = {}
        for node in nodes:
            if node.node_id in self.nodes:
                raise RejectedInputError(f"duplicate node id {node.node_id!r}")
            self.nodes[node.node_id] = node
        self.segments: dict[str, Segment] = {}
        adj: dict[str, list[tuple[str, Segment]]] = {nid: [] for nid in self.nodes}
        for seg in segments:
            if seg.u not in self.nodes or seg.v not in self.nodes:
                raise RejectedInputError(
                    f"segment {seg.segment_id} references unknown node ({seg.u}, {seg.v})"
                )
            if seg.segment_id in self.segments:
                raise RejectedInputError(f"duplicate segment id {seg.segment_id!r}")
            self.segments[seg.segment_id] = seg
            adj[seg.u].append((seg.v, seg))
            adj[seg.v].append((seg.u, seg))
        self._adj = {nid: tuple(pairs) for nid, pairs in adj.items()}
        self.camera_ids = sorted({seg.camera_id for seg in segments if seg.camera_id is not None})

        # Sorted numbering makes integer comparisons agree with id
        # comparisons, so integer keys tie-break exactly as id keys would.
        self._node_ids = sorted(self.nodes)
        self._rank = rank = {nid: r for r, nid in enumerate(self._node_ids)}
        self._segments_by_slot = [self.segments[sid] for sid in sorted(self.segments)]
        slot = {seg.segment_id: k for k, seg in enumerate(self._segments_by_slot)}
        self._camera_slot = cam_slot = {cam: k for k, cam in enumerate(self.camera_ids)}
        uncovered = len(self.camera_ids)
        self._ranked_adj = [
            tuple(
                (
                    rank[other],
                    slot[seg.segment_id],
                    seg.traversal_cost,
                    uncovered if seg.camera_id is None else cam_slot[seg.camera_id],
                )
                for other, seg in self._adj[nid]
            )
            for nid in self._node_ids
        ]
        # Landmark bounds are exact up to _EXACT_SPAN times the smallest
        # positive traversal cost (see ``_search``). A graph with distances
        # past that keeps a (0, n) array, whose bound is 0 everywhere, and
        # then no route needs searching again.
        self._exact_up_to = _EXACT_SPAN * min(
            (seg.traversal_cost for seg in segments if seg.traversal_cost > 0), default=0.0
        )
        dist = _landmark_distances(self._ranked_adj)
        if dist[np.isfinite(dist)].max(initial=0.0) > self._exact_up_to:
            dist, self._exact_up_to = dist[:0], math.inf
        self._landmark_dist, self._landmark_reach = dist, np.isfinite(dist)

    def neighbors(self, node_id: str) -> tuple[tuple[str, Segment], ...]:
        """(other node, segment) pairs in segment order, built once."""
        return self._adj[node_id]

    def _bound_to(self, goal: int) -> list[float]:
        """Per node rank, a lower bound on the traversal cost still to reach
        rank ``goal``: inf where no path reaches it, 0 without landmarks."""
        dist, reach = self._landmark_dist, self._landmark_reach
        # A landmark that reaches neither node says nothing about them; the
        # mask also keeps inf - inf from being evaluated.
        gap = np.subtract(
            dist, dist[:, goal, None], out=np.zeros_like(dist), where=reach | reach[:, goal, None]
        )
        bound = np.abs(gap, out=gap).max(axis=0, initial=0.0)
        bound *= _BOUND_SHRINK
        return bound.tolist()

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PathGraph":
        """A graph from its JSON description: ``nodes`` with ``id``, ``x``
        and ``y``, and ``edges`` with ``u``, ``v``, ``len_m`` and optional
        ``id``, ``cam`` (a string or null) and ``base_cost``. A description
        that is malformed or holds a bad number is a RejectedInputError."""
        try:
            nodes = [
                Node(str(n["id"]), *(float(checked(k, n[k], -sys.float_info.max)) for k in "xy"))
                for n in obj["nodes"]
            ]
            segments = []
            for e in obj["edges"]:
                cam, base = e.get("cam"), e.get("base_cost")
                if not (cam is None or isinstance(cam, str)):
                    raise TypeError(f"camera id {cam!r} is not a string")
                segments.append(
                    Segment(
                        segment_id=str(e.get("id", f"{e['u']}-{e['v']}")),
                        u=str(e["u"]),
                        v=str(e["v"]),
                        # float() would take a bool or a numeric string; checked refuses both.
                        length_m=float(checked("len_m", e["len_m"], above=True)),
                        camera_id=cam,
                        base_cost=None if base is None else float(checked("base_cost", base)),
                    )
                )
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            raise RejectedInputError(f"bad graph description: {exc!r}") from exc
        return cls(nodes, segments)


def _landmark_distances(adj: list[tuple[tuple[int, int, float, int], ...]]) -> np.ndarray:
    """Traversal-cost distances from ``_LANDMARKS`` landmarks, one row each,
    inf where unreachable. The first landmark is rank 0; each later one is
    the node farthest from every landmark so far, an unreachable node
    counting as farthest and the lowest rank winning ties."""
    if not adj:
        return np.empty((_LANDMARKS, 0))
    dist = np.empty((_LANDMARKS, len(adj)))
    nearest = np.full(len(adj), math.inf)
    for row in dist:
        row[:] = _distances_from(adj, int(np.argmax(nearest)))
        np.minimum(nearest, row, out=nearest)
    return dist


def _distances_from(adj: list[tuple[tuple[int, int, float, int], ...]], source: int) -> list[float]:
    """Dijkstra over traversal costs on every segment, cameras ignored."""
    dist = [math.inf] * len(adj)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for other, _, base, _ in adj[node]:
            c = d + base
            if c < dist[other]:
                dist[other] = c
                heapq.heappush(heap, (c, other))
    return dist


# ---------------------------------------------------------------------------
# Costs
# ---------------------------------------------------------------------------

def _price_cameras(
    cameras: list[str],
    query: PlanQuery,
    stores: Mapping[str, IsochronalStore],
    live_bands: Mapping[str, BandOutputs],
) -> tuple[list[float | None], list[str]]:
    """The planner's edge cost: a covered segment costs its traversal cost
    plus its camera's activity. Returns the activity by camera slot, then
    0.0 for uncovered segments, and the stale cameras in ``cameras`` order.

    Off-line, activity is lam times the learned mean activity at
    ``t_star`` (0 without a store). Real-time, it is w1 times that at the
    current minute plus w2 times the live short-term activity; live bands
    that are missing, older than ``staleness_s`` or non-finite are left
    out and the camera is stale. A camera whose store's support profile is
    empty is excluded, its activity ``None``; no store is not evidence that
    people avoid the spot. An activity that overflows would tie every route
    through the camera at inf, so it raises :class:`InvalidParameterError`.
    """
    realtime = query.mode == MODE_REALTIME
    minute = minute_of_day(query.t_ms) if realtime else query.t_star
    activities: list[float | None] = []
    stale_cameras = []
    for cam in cameras:
        store = stores.get(cam)
        activity = 0.0 if store is None else query.lam * store.scalar_stats(minute)[0]
        if realtime:
            live = 0.0
            bands = live_bands.get(cam)
            stale = bands is None or abs(query.t_ms - bands.timestamp_ms) > query.staleness_s * 1000.0
            if not stale:
                live = query.lam * block_mean(bands.m_s1.density)
                if query.include_moving:
                    live += query.lam * block_mean(bands.m_s2.density)
                # A negative term would price an edge below its traversal
                # cost, which the search's bound assumes never happens.
                if not 0 <= live < math.inf:
                    live, stale = 0.0, True
            if stale:
                stale_cameras.append(cam)
            longterm = query.w1 * activity if query.w1 else 0.0  # 0 * inf would be NaN
            activity = longterm + query.w2 * live
        if not activity < math.inf:
            raise InvalidParameterError(
                f"camera {cam!r}: activity price {activity} is not finite with lam={query.lam!r}"
            )
        activities.append(None if store is not None and not store.binarize().any() else activity)
    activities.append(0.0)
    return activities, stale_cameras


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------

MODE_OFFLINE = "offline"
MODE_REALTIME = "realtime"


@dataclass(frozen=True)
class PlanQuery:
    """One route. ``config.checked`` holds ``lam`` to finite and > 0, ``w1``,
    ``w2`` and ``staleness_s`` to finite and >= 0, ``t_star`` to an integer
    minute of day and ``t_ms`` to an integer >= 0; real time needs w1 + w2 > 0."""

    origin: str
    goal: str
    mode: str = MODE_OFFLINE
    t_star: int = 0         # minute of day (offline mode)
    t_ms: int = 0           # wall clock ms (realtime mode)
    w1: float = 0.5
    w2: float = 0.5
    lam: float = 1.0
    staleness_s: float = 5.0
    include_moving: bool = False

    def __post_init__(self) -> None:
        if self.mode not in (MODE_OFFLINE, MODE_REALTIME):
            raise InvalidParameterError(f"unknown plan mode {self.mode!r}")
        checked("lam", self.lam, above=True)
        checked("w1", self.w1)
        checked("w2", self.w2)
        checked("staleness_s", self.staleness_s)
        checked("t_star", self.t_star, 0, MINUTES_PER_DAY - 1, integral=True)
        checked("t_ms", self.t_ms, integral=True)
        if self.mode == MODE_REALTIME and self.w1 + self.w2 <= 0:
            raise InvalidParameterError("w1 + w2 must be > 0 in realtime mode")


@dataclass
class SegmentBreakdown:
    segment_id: str
    base: float
    activity: float


@dataclass
class PlanResult:
    found: bool
    nodes: list[str] = field(default_factory=list)
    segments: list[SegmentBreakdown] = field(default_factory=list)
    total_cost: float = math.inf
    degraded: bool = False
    # Graph-wide, sorted: cameras whose segments were excluded as never
    # active, and cameras priced long-term only (real-time queries).
    excluded_cameras: list[str] = field(default_factory=list)
    stale_cameras: list[str] = field(default_factory=list)
    # Nodes settled by the search that returned the result, the goal
    # included.
    expansions: int = 0


def plan_path(
    graph: PathGraph,
    query: PlanQuery,
    stores: Mapping[str, IsochronalStore] | None = None,
    live_bands: Mapping[str, BandOutputs] | None = None,
) -> PlanResult:
    """Minimum-cost feasible route from origin to goal.

    Edge cost is traversal cost plus mode-dependent activity cost; routes
    through never-active covered segments are excluded. Returns a
    not-found result (rather than raising) when origin and goal are
    disconnected after exclusions.
    """
    stores = stores or {}
    live_bands = live_bands or {}
    if query.origin not in graph.nodes or query.goal not in graph.nodes:
        raise UnknownSegmentError(f"unknown endpoint {query.origin!r} or {query.goal!r}")
    if query.origin == query.goal:
        raise InvalidParameterError("origin and goal must differ")

    activity, stale = _price_cameras(graph.camera_ids, query, stores, live_bands)
    explain = {
        "excluded_cameras": [cam for cam, a in zip(graph.camera_ids, activity) if a is None],
        "stale_cameras": stale,
    }
    adj, origin, goal = graph._ranked_adj, graph._rank[query.origin], graph._rank[query.goal]
    cost, path, via, settled = _search(adj, origin, goal, activity, graph._bound_to(goal))
    if path is not None and not cost <= graph._exact_up_to:
        cost, path, via, settled = _search(adj, origin, goal, activity, [0.0] * len(adj))
    if path is None:
        return PlanResult(found=False, expansions=settled, **explain)
    segs = [graph._segments_by_slot[via[r]] for r in path[1:]]
    slots = [graph._camera_slot.get(s.camera_id, len(graph.camera_ids)) for s in segs]
    return PlanResult(
        found=True,
        nodes=[graph._node_ids[r] for r in path],
        segments=[SegmentBreakdown(s.segment_id, s.traversal_cost, activity[k]) for s, k in zip(segs, slots)],
        total_cost=cost,
        degraded=any(s.camera_id in stale for s in segs),
        expansions=settled,
        **explain,
    )


# Offered to no node yet: every key (cost, hops, ...) compares below it.
_NOTHING_OFFERED = (math.inf, math.inf)


def _search(
    adj: list[tuple[tuple[int, int, float, int], ...]],
    origin: int,
    goal: int,
    activity: list[float | None],
    bound: list[float],
) -> tuple[float, tuple[int, ...] | None, list[int | None], int]:
    """A* over a graph's ranked index, settling nodes in uniform-cost order
    wherever that order decides the route.

    Keys are (cost, hops, node-rank path, segment slot), so the cheapest
    route wins, then the one with fewer edges, then the smaller node ids in
    order, then the smaller id of the last segment. An edge adds
    ``(cost + traversal cost) + activity``. Heap entries put
    ``cost + bound[node]`` ahead of the key; with a zero bound this is
    uniform-cost search. A node's entries share its bound, so they pop in
    key order. A key is pushed only if it is below every key already
    offered to its node: a larger one would pop after the node settled and
    be dropped.

    Each node's first pop carries the key uniform-cost search settles it
    with, provided the bound is consistent with a margin: across an edge of
    traversal cost b > 0 it may fall by at most ``(1 - 2**-20) * b``, and
    across b = 0 not at all. Then along the route to any node the first
    field never falls, and where it ties, cost or hops rise, so each node
    before it on the route pops first. Exactly, landmark bounds fall by at
    most ``(1 - 2**-20) * b`` (triangle inequality), and an edge costs at
    least b. In floats, the rounding of the distances, the bound and the
    search's sums is a few ulps of a value at most 2**30 times the smallest
    positive traversal cost, far below the 2**-20 * b margin, when every
    distance and the route's cost stay within that span: ``PathGraph``
    keeps landmarks only when its distances do, and ``plan_path`` searches
    again with a zero bound when the route costs more. The ends of a
    zero-cost segment have exactly equal distances, hence equal bounds.

    Returns the goal's cost, its rank path (``None`` when unreachable),
    the segment slot each settled node was reached by (-1 for the origin)
    and the number of nodes settled.
    """
    via: list[int | None] = [None] * len(adj)
    offered = [_NOTHING_OFFERED] * len(adj)
    heap = [(bound[origin], 0.0, 0, (origin,), -1)]
    settled = 0
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        _, cost, hops, path, slot = pop(heap)
        node = path[-1]
        if via[node] is not None:
            continue
        via[node] = slot
        settled += 1
        if node == goal:
            return cost, path, via, settled
        hops += 1
        for other, seg_slot, base, cam in adj[node]:
            a = activity[cam]
            if a is None or via[other] is not None:
                continue
            c = cost + base + a
            best = offered[other]
            if c <= best[0]:
                route = path + (other,)
                key = (c, hops, route, seg_slot)
                if key < best:
                    offered[other] = key
                    push(heap, (c + bound[other], c, hops, route, seg_slot))
    return math.inf, None, via, settled


# ---------------------------------------------------------------------------
# Cost maps
# ---------------------------------------------------------------------------

@dataclass
class CostMap:
    """Occupancy cost grid: 0 free .. 254 lethal, 255 unknown. A non-finite
    origin would put every block off the map, and a cell that is not an
    integer in [0, 255] would wrap or round into another cost, so both are
    refused."""

    resolution_m: float
    origin_x: float
    origin_y: float
    cells: np.ndarray  # (rows, cols) uint8

    def __post_init__(self) -> None:
        checked("resolution_m", self.resolution_m, above=True)
        checked("origin_x", self.origin_x, -sys.float_info.max)
        checked("origin_y", self.origin_y, -sys.float_info.max)
        c = np.asarray(self.cells)
        if c.ndim != 2:
            raise RejectedInputError(f"cost grid must be 2-D, got shape {c.shape}")
        if c.dtype.kind not in "biu":
            raise RejectedInputError(f"cost cells must be integers, got dtype {c.dtype}")
        if c.dtype != np.uint8 and c.size and not (c.min() >= 0 and c.max() <= 255):
            raise RejectedInputError("cost cells must be within [0, 255]")
        self.cells = c.astype(np.uint8, copy=False)


def write_costmap(map_: CostMap, pgm_path: str | Path, yaml_path: str | Path) -> None:
    """ROS map-server pair. Cost c is stored as pixel 255 - c, so free
    space renders white and lethal cells near black."""
    pgm_path, yaml_path = Path(pgm_path), Path(yaml_path)
    pixels = (255 - map_.cells.astype(np.int16)).astype(np.uint8)
    with open(pgm_path, "wb") as fh:
        fh.write(f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
    meta = {
        "image": pgm_path.name,
        "resolution": map_.resolution_m,
        "origin": [map_.origin_x, map_.origin_y, 0.0],
        "negate": 0,
        "occupied_thresh": 0.65,
        "free_thresh": 0.196,
    }
    with open(yaml_path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(meta, fh, default_flow_style=None, sort_keys=False)


# Magic, width, height and maxval, each token after whitespace or comments,
# then the one whitespace byte that ends the header.
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def _pgm_raster(path: str | Path) -> np.ndarray:
    """The 8-bit raster of a binary (P5) PGM."""
    data = Path(path).read_bytes()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise RejectedInputError(f"{path} does not start with a binary PGM header")
    width, height, maxval = map(int, header.groups())
    if maxval > 255:
        raise RejectedInputError(f"16-bit PGM unsupported (maxval {maxval})")
    raster = data[header.end() : header.end() + width * height]
    if len(raster) != width * height:
        raise RejectedInputError("PGM raster truncated")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)


def read_costmap(pgm_path: str | Path, yaml_path: str | Path) -> CostMap:
    """A ROS map-server pair. Metadata other than a YAML mapping of a valid
    ``resolution`` and optional ``origin`` (x, y, ...) is a RejectedInputError."""
    cells = (255 - _pgm_raster(pgm_path).astype(np.int16)).astype(np.uint8)
    try:
        with open(yaml_path, "r", encoding="utf-8") as fh:
            meta = yaml.safe_load(fh)
        origin = meta.get("origin", [0.0, 0.0, 0.0])  # AttributeError: not a mapping
        named = {"resolution": meta["resolution"], "origin_x": origin[0], "origin_y": origin[1]}
        # float() would take a bool or a numeric string; checked refuses both.
        return CostMap(*(float(checked(k, v, -sys.float_info.max)) for k, v in named.items()), cells)
    except (yaml.YAMLError, AttributeError, LookupError, OverflowError, TypeError, ValueError) as exc:
        raise RejectedInputError(f"bad cost-map metadata in {yaml_path}: {exc!r}") from exc


@dataclass
class ExportReport:
    cells_touched: int
    blocks_skipped: int


def splat_activity(
    static_map: CostMap,
    activity_frames: Mapping[str, MotionFrame],
    homographies: Mapping[str, np.ndarray],
) -> tuple[CostMap, ExportReport]:
    """Overlay block activity onto a static map.

    Each camera's homography maps block-center coordinates (bx + 0.5,
    by + 0.5) to world meters; each block's density lands in the containing
    cell, scaled by ``LETHAL_COST`` and clipped to [0, 254], so a density
    of 1 or more is lethal. Blocks falling outside the map
    are skipped and counted. The combined map is the element-wise max of
    the static and activity layers. Every camera's homography is checked
    before any density: a missing, non-real or non-finite homography, then a
    non-finite density, is rejected naming the first such camera in sorted
    order, before anything is projected. Block cells come from a cache
    (see the module docstring).
    """
    cameras = sorted(activity_frames.items())
    views = []
    for cam_id, frame in cameras:
        if cam_id not in homographies:
            raise RejectedInputError(f"no homography for {cam_id}")
        h = np.asarray(homographies[cam_id])
        if h.dtype.kind not in "biuf":
            raise RejectedInputError(f"homography for {cam_id} must be real numbers, got dtype {h.dtype}")
        h = h.astype(np.float64, copy=False)
        if h.shape != (3, 3):
            raise RejectedInputError(f"homography for {cam_id} must be 3x3, got {h.shape}")
        if not np.isfinite(h).all():
            raise RejectedInputError(f"homography for {cam_id} is not finite")
        order = "F" if h.flags.f_contiguous else "C"  # BLAS rounds each order its own way
        views.append((h.tobytes(order), order, frame.density.shape))
    # Empty heads: zero cameras still concatenate, with the right dtypes.
    density = np.concatenate([np.empty(0), *(frame.density.ravel() for _, frame in cameras)])
    if not np.isfinite(density).all():
        bad = next(cam_id for cam_id, frame in cameras if not np.isfinite(frame.density).all())
        raise RejectedInputError(f"activity frame for {bad} has non-finite density")
    geometry = (static_map.origin_x, static_map.origin_y, static_map.resolution_m, static_map.cells.shape)
    cells = np.concatenate([np.empty(0, np.intp), *(_block_cells(*view, geometry) for view in views)])
    active = density > 0
    hit = np.flatnonzero(active & (cells >= 0))  # two gathers by a mask cost more
    combined = static_map.cells.copy()
    cost = np.minimum(np.rint(density[hit] * LETHAL_COST), LETHAL_COST).astype(np.uint8)
    np.maximum.at(combined.reshape(-1), cells[hit], cost)
    report = ExportReport(cells_touched=hit.size, blocks_skipped=int(np.count_nonzero(active)) - hit.size)
    return CostMap(static_map.resolution_m, static_map.origin_x, static_map.origin_y, combined), report


@functools.lru_cache(maxsize=_PROJECTION_CACHE_SIZE)
def _block_cells(h_bytes: bytes, order: str, grid: tuple[int, int], geometry: tuple) -> np.ndarray:
    """Read-only flat map cell per block of ``grid``, row-major, -1 off the
    map; ``geometry`` is the map's origin x and y, resolution and shape."""
    origin_x, origin_y, resolution_m, (rows, cols) = geometry
    h = np.frombuffer(h_bytes).reshape((3, 3), order=order)
    by, bx = np.indices(grid).reshape(2, -1)
    pts = np.ones((by.size, 3, 1))
    pts[:, 0, 0] = bx + 0.5
    pts[:, 1, 0] = by + 0.5
    vec = (h @ pts)[:, :, 0]  # one gemv per block (see the module docstring)
    # Points at infinity (w = 0, or a ratio that overflows) come out
    # inf or NaN and fail the bounds test: they are off the map.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        col = np.floor((vec[:, 0] / vec[:, 2] - origin_x) / resolution_m)
        row = np.floor((vec[:, 1] / vec[:, 2] - origin_y) / resolution_m)
    inside = (col >= 0) & (col < cols) & (row >= 0) & (row < rows)
    cells = np.full(by.size, -1, dtype=np.intp)
    cells[inside] = row[inside].astype(np.intp) * cols + col[inside].astype(np.intp)
    cells.flags.writeable = False
    return cells
