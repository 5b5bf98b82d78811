"""Graph analysis of block designs.

Structural diagnostics a frontend wants before compiling: connectivity,
dataflow layering (pipeline stages), cut size between stages, and the
reuse profile that makes a design a good fit for a pre-implemented-block
flow (the paper's §III argument for partition granularity).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flow.blockdesign import BlockDesign
from repro.place_kernel.route_cost import dag_longest_paths

__all__ = ["DesignGraphStats", "analyze_design", "edge_weights"]


def edge_weights(design: BlockDesign) -> dict[tuple[str, str], int]:
    """Instance-to-instance connectivity, parallel buses merged.

    Maps ``(src, dst)`` to the summed bus width of every edge between
    the two instances, in first-appearance order.
    """
    weights: dict[tuple[str, str], int] = {}
    for e in design.edges:
        weights[e.src, e.dst] = weights.get((e.src, e.dst), 0) + e.width
    return weights


def _n_components(n: int, pairs: list[tuple[int, int]]) -> int:
    """Weakly connected components of ``n`` nodes (union-find)."""
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    components = n
    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return components


@dataclass(frozen=True)
class DesignGraphStats:
    """Structural summary of one block design.

    Attributes
    ----------
    n_components:
        Weakly connected components (a compilable design has 1).
    is_dag:
        Whether the dataflow is acyclic (streaming NN pipelines are).
    depth:
        Longest path length in instances (pipeline depth), or -1 for
        cyclic designs.
    max_fan_out:
        Largest out-degree (broadcast pressure on the stitcher).
    reuse_ratio:
        ``instances / unique modules`` — the quantity RW-style flows
        monetize (cnvW1A1: 175/74 ≈ 2.36).
    max_cut_width:
        Largest total bus width crossing any topological layer boundary
        (an upper bound on the inter-stage routing demand).
    """

    n_components: int
    is_dag: bool
    depth: int
    max_fan_out: int
    reuse_ratio: float
    max_cut_width: int

    def render(self) -> str:
        return (
            f"components={self.n_components} dag={self.is_dag} "
            f"depth={self.depth} max_fanout={self.max_fan_out} "
            f"reuse={self.reuse_ratio:.2f} max_cut={self.max_cut_width}"
        )


def analyze_design(design: BlockDesign) -> DesignGraphStats:
    """Compute structural diagnostics for ``design``."""
    design.validate()
    index = {inst.name: i for i, inst in enumerate(design.instances)}
    n = len(index)
    weights = edge_weights(design)
    pairs = [(index[src], index[dst]) for src, dst in weights]
    # Unit node delay, zero edge delay: arrival[v] counts the instances on
    # the longest path ending at v, so arrival - 1 is v's topological
    # layer (and the longest path's hop count).
    arrival, _leaving, _pred, cyclic = dag_longest_paths(
        n, [(a, b, 0) for a, b in pairs], [1.0] * n, [0.0] * len(pairs)
    )
    is_dag = not any(cyclic)

    depth = -1
    max_cut = 0
    if is_dag and n:
        layer_of = [int(a) - 1 for a in arrival]
        depth = max(layer_of)
        # Bus width crossing each topological layer boundary.
        cuts = [0] * (depth + 1)
        for (a, b), width in zip(pairs, weights.values()):
            for boundary in range(layer_of[a], layer_of[b]):
                cuts[boundary] += width
        max_cut = max(cuts)

    fan_out = [0] * n
    for a, _b in pairs:
        fan_out[a] += 1
    reuse = design.n_instances / design.n_unique if design.n_unique else 0.0
    return DesignGraphStats(
        n_components=_n_components(n, pairs),
        is_dag=is_dag,
        depth=depth,
        max_fan_out=max(fan_out, default=0),
        reuse_ratio=reuse,
        max_cut_width=max_cut,
    )
