"""Output checks that do not reuse the code they check.

``RouteOracle`` prices every segment of the benchmark's own graph
description from ``IsochronalStore.query``, ``binarize`` and the live
bands, and solves the route with scipy's Dijkstra. A plan whose cost
differs from it is counted as failed.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

PLAN_RTOL = 1e-9


class RouteOracle:
    def __init__(self, graph_obj: dict, stores: Mapping, epsilon: float = 1e-3):
        index = {n["id"]: i for i, n in enumerate(graph_obj["nodes"])}
        self._index = index
        self._n = len(index)
        edges = graph_obj["edges"]
        self._u = np.array([index[e["u"]] for e in edges])
        self._v = np.array([index[e["v"]] for e in edges])
        self._base = np.array(
            [e["len_m"] if e.get("base_cost") is None else e["base_cost"] for e in edges]
        )
        self._cams = [e.get("cam") for e in edges]
        # The stores are read-only while the workload runs, so their
        # time-collapsed support is computed once.
        never_active = {cam for cam, s in stores.items() if not s.binarize(epsilon).any()}
        self._usable = np.array([c not in never_active for c in self._cams])

    def cost(self, query, stores: Mapping, live_bands: Mapping) -> float:
        """Minimum route cost, or inf when the goal is unreachable."""
        activity: dict[str, float] = {}
        for cam in set(self._cams) - {None}:
            activity[cam] = self._camera_activity(cam, query, stores, live_bands)
        weights = self._base + np.array([0.0 if c is None else activity[c] for c in self._cams])
        keep = self._usable
        graph = csr_matrix(
            (weights[keep], (self._u[keep], self._v[keep])), shape=(self._n, self._n)
        )
        dist = dijkstra(graph, directed=False, indices=self._index[query.origin])
        return float(dist[self._index[query.goal]])

    @staticmethod
    def _camera_activity(cam, query, stores, live_bands) -> float:
        def learned(minute: int) -> float:
            if cam not in stores:
                return 0.0
            mean, _, _ = stores[cam].query(minute)
            return query.lam * float(mean.density.mean())

        if query.mode == "offline":
            return learned(query.t_star)
        longterm = learned((query.t_ms // 60_000) % 1440)
        live = 0.0
        bands = live_bands.get(cam)
        if bands is not None and abs(query.t_ms - bands.timestamp_ms) <= query.staleness_s * 1000.0:
            live = query.lam * float(bands.m_s1.density.mean())
            if query.include_moving:
                live += query.lam * float(bands.m_s2.density.mean())
        return query.w1 * longterm + query.w2 * live


def plan_matches(result, expected: float) -> bool:
    if math.isinf(expected):
        return not result.found
    return (
        result.found
        and math.isfinite(result.total_cost)
        and abs(result.total_cost - expected) <= PLAN_RTOL * max(1.0, abs(expected))
    )


def splat_matches(report, activity_frames: Mapping) -> bool:
    positive = sum(int((f.density > 0).sum()) for f in activity_frames.values())
    return report.cells_touched + report.blocks_skipped == positive


def bands_finite(result) -> bool:
    """IngestResult check: every band array and the activity are finite."""
    if not math.isfinite(result.activity) or result.decision not in (0, 1):
        return False
    b = result.bands
    return all(
        np.isfinite(f.density.sum()) and np.isfinite(f.dir_hist.sum())
        for f in (b.m_l1, b.m_s1, b.m_s2)
    )
