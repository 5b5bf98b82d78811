"""Result and instrumentation types shared by every placement optimizer.

Both the SA stitcher (:func:`repro.flow.stitcher.stitch`) and the GA
evolver (:func:`repro.flow.evolve.evolve`) return a
:class:`StitchResult` carrying a :class:`StitchStats`, so downstream
consumers (bitgen, congestion maps, DSE, the CLI) never care which
optimizer produced a placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["StitchResult", "StitchStats", "converge_history", "pareto_key"]


def pareto_key(result: "StitchResult") -> tuple[int, float]:
    """The shared placement-quality ordering: ``(n_unplaced, final_cost)``.

    Fewer unplaced blocks always beats lower cost — a run that leaves a
    block on the floor is structurally worse however cheap its
    wirelength looks.  Used by :class:`~repro.dse.explorer.DSEExplorer`
    across its optimizer portfolio and by
    :func:`~repro.flow.fanout.best_result` for the restart-family
    winner, so every winner-selection path in the flow ranks runs the
    same way.
    """
    return (result.n_unplaced, result.final_cost)


def converge_history(
    history: list[tuple[int, float]] | tuple[tuple[int, float], ...],
    final_cost: float,
    at_op: int,
) -> tuple[tuple[tuple[int, float], ...], int]:
    """Fold the post-fill cost into a best-cost trajectory and locate the
    convergence point.

    The optimizers track best-cost improvements during their move
    phases, but the deterministic ``first_fit_fill`` afterwards can
    change the cost once more — so the convergence threshold must be
    anchored at the *true* ``final_cost``, not the move-phase best.
    When the fill improved on the trajectory, a terminal
    ``(at_op, final_cost)`` event is appended; when the fill was a
    no-op (or the optimizer's end state drifted above its best — SA
    returns its final state, not its best) the trajectory is returned
    byte-identical, which keeps the golden histories pinned.

    ``converged_at`` is the first event within 1% of the total descent
    from the trajectory's final cost (the paper's convergence-speed
    metric).

    Returns ``(history, converged_at)`` with ``history`` as a tuple.
    """
    hist = list(history)
    if not hist:
        return (), 0
    if final_cost < hist[-1][1] - 1e-9:
        hist.append((at_op, final_cost))
    initial_cost = hist[0][1]
    final_best = hist[-1][1]
    threshold = final_best + 0.01 * max(0.0, initial_cost - final_best)
    converged_at = next(
        (op for op, c in hist if c <= threshold), hist[-1][0]
    )
    return tuple(hist), converged_at


@dataclass(frozen=True)
class StitchStats:
    """Instrumentation of one placement run.

    A thin view over the run's trace: each timing is the duration of the
    matching optimizer span (monotonic, :func:`time.perf_counter`
    based), and the four phases *tile* the run — ``fill_s`` includes the
    post-optimization finalization (deterministic fill, convergence
    scan, final cost/occupancy extraction), so ``total_s`` equals the
    wall time of the whole placement call.  Counters split the move mix
    into attempts and acceptances and mirror the optimizer's span
    counters.  All counters are deterministic for a fixed seed; the
    timings are not, so the whole object is excluded from
    :class:`StitchResult` equality.

    For the SA stitcher the four phases are setup/initial/anneal/fill;
    the other optimizers map their own spans (GA init/generations/repair,
    tempering init/rounds/exchange, analytic init/descent/legalize) onto
    ``initial_s``/``anneal_s``/``fill_s`` so the shape stays identical,
    and name them in ``phase_names``.
    """

    kernel: str
    seed: int
    setup_s: float
    initial_s: float
    anneal_s: float
    fill_s: float
    move_attempts: int
    place_attempts: int
    swap_attempts: int
    move_accepts: int
    place_accepts: int
    swap_accepts: int
    illegal_moves: int
    #: ``(iteration, temperature)`` at the end of each temperature step
    #: (SA); ``(move_budget_used, best_cost)`` per generation (GA).
    temperature_trace: tuple[tuple[int, float], ...] = ()
    #: Display names of the setup/initial/anneal/fill slots; an empty
    #: name marks a slot the optimizer does not use.
    phase_names: tuple[str, str, str, str] = ("setup", "initial", "anneal", "fill")

    def breakdown(self) -> str:
        """The phase timings as ``"name 0.01 + name 0.20 + ..."``."""
        times = (self.setup_s, self.initial_s, self.anneal_s, self.fill_s)
        return " + ".join(
            f"{name} {t:.2f}" for name, t in zip(self.phase_names, times) if name
        )

    @property
    def total_s(self) -> float:
        """Wall-clock total across all phases."""
        return self.setup_s + self.initial_s + self.anneal_s + self.fill_s

    @property
    def accept_rate(self) -> float:
        """Accepted fraction over all attempted moves."""
        attempts = self.move_attempts + self.place_attempts + self.swap_attempts
        accepts = self.move_accepts + self.place_accepts + self.swap_accepts
        return accepts / attempts if attempts else 0.0


@dataclass(frozen=True)
class StitchResult:
    """Outcome of one placement run.

    Attributes
    ----------
    placements:
        Anchor ``(x, y)`` per instance, or ``None`` if unplaced.
    n_placed, n_unplaced:
        Placement counts (Fig. 5's headline metric).
    wirelength:
        Final weighted HPWL over inter-block edges.
    final_cost:
        Wirelength plus unplaced penalties (the optimizer objective).
    iterations:
        Total optimizer moves executed (SA iterations, or the GA's
        consumed move budget — directly comparable at equal budgets).
    converged_at:
        Iteration at which the run first came within 1% of its final
        cost (the paper's convergence-speed metric compares this across
        CF policies; footprint irregularity slows the descent).
    illegal_moves:
        Rejected-by-overlap move count.
    history:
        Best-cost trajectory as ``(iteration, cost)`` improvement points.
    occupancy:
        Final occupancy grid (columns x CLB rows), for rendering.
    stats:
        Per-phase timings, move counters and the temperature trace.
    congestion_cost, timing_cost:
        The routing-aware cost terms at the final placement (0.0 when
        the run's weights were 0.0 — the default).  ``final_cost`` ==
        ``wirelength + unplaced penalty + timing_cost +
        congestion_cost``.  Excluded from equality so the existing
        cross-process determinism comparisons stay pinned on the
        placement itself.
    """

    placements: dict[str, tuple[int, int] | None]
    n_placed: int
    n_unplaced: int
    wirelength: float
    final_cost: float
    iterations: int
    converged_at: int
    illegal_moves: int
    history: tuple[tuple[int, float], ...] = field(
        compare=False, repr=False, default=()
    )
    occupancy: np.ndarray | None = field(compare=False, repr=False, default=None)
    stats: StitchStats | None = field(compare=False, repr=False, default=None)
    congestion_cost: float = field(compare=False, repr=False, default=0.0)
    timing_cost: float = field(compare=False, repr=False, default=0.0)

    def iters_to_cost(self, target: float) -> int | None:
        """First iteration whose best cost is <= ``target``.

        The time-to-target metric annealing comparisons use: how fast one
        run reaches the quality another run ends at.  ``None`` if the run
        never got there.
        """
        for it, c in self.history:
            if c <= target + 1e-9:
                return it
        return None

    def render(self, max_width: int = 100) -> str:
        """ASCII view of the occupancy (Fig. 5 / Fig. 13 style)."""
        occ = self.occupancy
        if occ is None:
            return "<no occupancy recorded>"
        cols, rows = occ.shape
        step = max(1, math.ceil(cols / max_width))
        lines = []
        for y in range(rows - 1, -1, -max(1, rows // 40)):
            line = "".join(
                "#" if occ[x : x + step, y].any() else "."
                for x in range(0, cols, step)
            )
            lines.append(line)
        return "\n".join(lines)
