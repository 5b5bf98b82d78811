"""Routing- and timing-aware cost terms for the move kernels.

Two optional, weighted terms extend the pure-HPWL stitch objective
(paper §VIII: the cost improvement is ultimately about routability and
timing, not wirelength for its own sake):

* **Channel-overflow congestion** — every placed inter-block edge
  charges its width to the vertical/horizontal routing channels its
  bounding box *crosses* (the same HPWL routing model as
  :mod:`repro.route.congestion_map`, sharing :func:`channel_window`),
  and the cost term is ``congestion_weight * sum(max(0, demand -
  capacity))`` over all channels.  Demand and overflow are integers, so
  the term is exact and the fast kernel can maintain it incrementally
  in O(deg) per move while staying bitwise-equal to the from-scratch
  reference recompute.
* **Block-level critical path** — per-module delays (seeded from the
  pre-implementation :class:`~repro.route.timing.TimingReport`
  ``total_ns``) flow through the design DAG once at kernel construction
  to produce a static *criticality* per edge; the placement-dependent
  term is ``sum_e q(timing_weight * crit_e * NS_PER_CLB) * dist_e``
  with ``dist_e`` the Manhattan center distance — the
  distance-proportional share of the inter-block net delay.  Because
  the term has the same functional form as HPWL, the kernels fold it
  into *effective* edge weights and the move delta machinery needs no
  second code path.

Determinism: the per-edge timing weights are quantized to multiples of
``2**-10`` (``q(x)`` above) and ``NS_PER_CLB`` is dyadic, so every cost
term remains a dyadic rational that float64 evaluates exactly in any
summation order — which is what keeps the fast and reference kernels
bitwise-equal with the terms enabled, not just approximately close.
Both weights default to 0.0; :func:`build_route_model` then returns
``None`` and the kernels take exactly their historical code paths, so
every golden in ``tests/test_golden_costs.py`` stays byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.place_kernel.problem import PlacementProblem

__all__ = [
    "CHANNEL_CAPACITY",
    "DEFAULT_NODE_DELAY_NS",
    "NET_DELAY_NS",
    "NS_PER_CLB",
    "RouteCostModel",
    "build_route_model",
    "channel_window",
    "dag_longest_paths",
    "edge_criticality",
    "quantize_dyadic",
]

#: Wires one inter-column (or inter-row) channel can carry.
CHANNEL_CAPACITY = 160
#: Distance-proportional net delay per CLB of Manhattan distance (ns).
#: Dyadic (1/16) so timing cost terms stay exactly representable.
NS_PER_CLB = 0.0625
#: Nominal inter-block net delay seeding the DAG criticality analysis
#: (matches the lightly-loaded hop of :mod:`repro.route.timing`).
NET_DELAY_NS = 0.45
#: Node delay assumed for modules absent from the delay mapping.
DEFAULT_NODE_DELAY_NS = 1.0

#: Timing edge weights are rounded to multiples of ``1 / _QUANT`` so
#: every timing term is a dyadic rational (exact float64 summation).
_QUANT = 1024.0


def quantize_dyadic(x: float) -> float:
    """Round ``x`` to the nearest multiple of ``2**-10``.

    Dyadic edge weights keep every cost sum exactly representable in
    float64, which is the bitwise fast==reference equivalence contract.
    """
    return round(x * _QUANT) / _QUANT


def channel_window(lo: float, hi: float) -> tuple[int, int]:
    """Inclusive channel index range a net spanning ``[lo, hi]`` crosses.

    Channel ``c`` sits between integer coordinates ``c`` and ``c + 1``;
    a net crosses exactly the integer boundaries *strictly inside*
    ``(lo, hi)``, and boundary ``k`` belongs to channel ``k - 1``.  The
    range is empty (``first > last``) for zero-extent nets and for nets
    whose endpoints only touch a boundary without crossing it.
    """
    return math.floor(lo), math.ceil(hi) - 2


def dag_longest_paths(
    n: int,
    edges: Sequence[tuple[int, int, int]],
    node_delay: Sequence[float],
    edge_delay: Sequence[float],
) -> tuple[list[float], list[float], list[int], list[bool]]:
    """Longest arrival/leaving path delays over the acyclic part of a graph.

    Returns ``(arrival, leaving, pred, cyclic)``:

    * ``arrival[v]`` — the longest path delay *ending* at ``v``
      (inclusive of ``node_delay[v]``);
    * ``leaving[v]`` — the longest path delay *starting* at ``v``;
    * ``pred[v]`` — the in-edge index achieving ``arrival[v]``
      (``-1`` for path sources), for critical-path extraction;
    * ``cyclic[e]`` — ``True`` for self-loops and edges with an endpoint
      on a directed cycle; such edges are excluded from the analysis
      (Kahn's algorithm leaves their endpoints unordered) and callers
      treat them as maximally critical.

    Deterministic: nodes enter the topological order in index order and
    ties in the relaxation break toward the earlier edge.
    """
    outs: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for ei, e in enumerate(edges):
        a, b = e[0], e[1]
        if a == b:
            continue
        outs[a].append(ei)
        indeg[b] += 1
    order = [v for v in range(n) if indeg[v] == 0]
    deg = list(indeg)
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for ei in outs[v]:
            b = edges[ei][1]
            deg[b] -= 1
            if deg[b] == 0:
                order.append(b)
    on_dag = [False] * n
    for v in order:
        on_dag[v] = True
    cyclic = [
        e[0] == e[1] or not on_dag[e[0]] or not on_dag[e[1]] for e in edges
    ]
    arrival = [float(node_delay[v]) for v in range(n)]
    pred = [-1] * n
    for v in order:
        for ei in outs[v]:
            if cyclic[ei]:
                continue
            b = edges[ei][1]
            cand = arrival[v] + edge_delay[ei] + node_delay[b]
            if cand > arrival[b]:
                arrival[b] = cand
                pred[b] = ei
    leaving = [float(node_delay[v]) for v in range(n)]
    for v in reversed(order):
        for ei in outs[v]:
            if cyclic[ei]:
                continue
            cand = edge_delay[ei] + leaving[edges[ei][1]] + node_delay[v]
            if cand > leaving[v]:
                leaving[v] = cand
    return arrival, leaving, pred, cyclic


def edge_criticality(
    n: int,
    edges: Sequence[tuple[int, int, int]],
    node_delay: Sequence[float],
    net_delay_ns: float = NET_DELAY_NS,
) -> list[float]:
    """Static criticality in ``(0, 1]`` per edge of the design DAG.

    ``crit_e`` is the longest path *through* edge ``e`` divided by the
    critical path, with a nominal ``net_delay_ns`` per inter-block hop.
    Edges on directed cycles (which the longest-path analysis must
    exclude) are treated as maximally critical (1.0) rather than
    dropped, so feedback buses are never optimized against.
    """
    if not edges:
        return []
    ed = [net_delay_ns] * len(edges)
    arrival, leaving, _pred, cyclic = dag_longest_paths(
        n, edges, node_delay, ed
    )
    cp = max(arrival)
    crit = []
    for ei, e in enumerate(edges):
        if cyclic[ei] or cp <= 0.0:
            crit.append(1.0)
        else:
            through = arrival[e[0]] + net_delay_ns + leaving[e[1]]
            crit.append(min(1.0, through / cp))
    return crit


@dataclass(frozen=True)
class RouteCostModel:
    """Configuration of the optional routing/timing cost terms.

    Immutable and picklable: restart families ship it (or rebuild it
    from the same inputs) across process boundaries, and a pure function
    of the problem plus the weights guarantees every worker scores the
    identical objective.
    """

    #: Weight of ``sum(max(0, channel demand - capacity))``.
    congestion_weight: float
    #: Weight the quantized per-edge timing weights were built with
    #: (recorded for reporting; the per-edge weights already include it).
    timing_weight: float
    #: Vertical channels (between device columns x and x+1).
    n_col_channels: int
    #: Horizontal channels (between CLB rows y and y+1).
    n_row_channels: int
    #: Wires one channel carries before overflowing.
    capacity: int
    #: Dyadic-quantized cost-per-CLB-of-distance per edge (design edge
    #: order), or ``None`` when the timing term is disabled.
    timing_edge_weight: tuple[float, ...] | None

    @property
    def has_congestion(self) -> bool:
        """True when the congestion term contributes to the objective."""
        return self.congestion_weight != 0.0

    @property
    def has_timing(self) -> bool:
        """True when the timing term contributes to the objective."""
        return self.timing_edge_weight is not None


def build_route_model(
    problem: "PlacementProblem",
    *,
    congestion_weight: float = 0.0,
    timing_weight: float = 0.0,
    module_delays: Mapping[str, float] | None = None,
    capacity: int = CHANNEL_CAPACITY,
) -> RouteCostModel | None:
    """The route-cost model for ``problem``, or ``None`` when disabled.

    ``None`` (both weights 0.0) makes the kernels take exactly their
    historical code paths — no demand tracking, no effective weights —
    which is the zero-weight neutrality contract the goldens pin.

    ``module_delays`` maps module names to node delays in ns (the flow
    seeds it with each pre-implemented module's
    ``TimingReport.total_ns``); absent modules fall back to
    :data:`DEFAULT_NODE_DELAY_NS`, and without any mapping the timing
    term degrades to a criticality-weighted wirelength refinement.
    """
    if congestion_weight == 0.0 and timing_weight == 0.0:
        return None
    tew = None
    if timing_weight != 0.0:
        delays_of = module_delays or {}
        if len(problem.modules) == problem.n:
            delays = [
                float(delays_of.get(m, DEFAULT_NODE_DELAY_NS))
                for m in problem.modules
            ]
        else:  # problem built without module names: uniform node delays
            delays = [DEFAULT_NODE_DELAY_NS] * problem.n
        crit = edge_criticality(problem.n, problem.edges, delays)
        tew = tuple(
            quantize_dyadic(timing_weight * c * NS_PER_CLB) for c in crit
        )
    grid = problem.grid
    return RouteCostModel(
        congestion_weight=float(congestion_weight),
        timing_weight=float(timing_weight),
        n_col_channels=max(0, grid.n_cols - 1),
        n_row_channels=max(0, grid.height_clbs - 1),
        capacity=int(capacity),
        timing_edge_weight=tew,
    )
