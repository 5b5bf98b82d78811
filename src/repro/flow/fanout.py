"""Order-preserving job fan-out and winner selection for placement families.

Every multi-run placement construct in the flow — the restart family
(:func:`~repro.flow.restarts.best_of`) and the parallel-tempering round
loop (:mod:`repro.flow.tempering`) — shares the two primitives here:

* :class:`FanOut` — run batches of picklable jobs over worker processes
  (or serially), always merging results in *job order*, never completion
  order, so any ``n_workers`` value produces bitwise-identical results;
* :func:`best_result` — the corrected winner selection: the pareto key
  ``(n_unplaced, final_cost)`` that :class:`~repro.dse.explorer.DSEExplorer`
  ranks portfolio placements by, with ties breaking toward the earliest
  entry.  (Selecting on ``final_cost`` alone is wrong: a run that leaves
  blocks unplaced can undercut a fully-placed run on cost alone when the
  unplaced penalty is small relative to the wirelength spread.)
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

from repro.obs.tracer import NullTracer, Tracer
from repro.place_kernel.result import StitchResult, pareto_key

__all__ = ["FanOut", "best_result", "graft_traces"]


class FanOut:
    """Dispatch job batches to worker processes, preserving job order.

    One instance may dispatch many batches: the tempering round loop runs
    one batch per exchange block over a persistent pool, so each worker
    process builds its placement kernel once (via ``initializer``) and
    reuses it across rounds; the restart families run a single batch.

    Serial mode — ``n_workers`` of ``None``/0/1, a single job, or pool
    creation failing with :class:`OSError` (restricted sandboxes) — runs
    the ``initializer`` once in-process and the jobs inline.  Results are
    identical either way because job order, not scheduling, defines the
    merge order.
    """

    def __init__(
        self,
        n_workers: int | None,
        n_jobs: int,
        *,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ) -> None:
        self._initializer = initializer
        self._initargs = initargs
        self._inited = False
        self._pool: ProcessPoolExecutor | None = None
        want = 0 if n_workers is None else int(n_workers)
        if want > 1 and n_jobs > 1:
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=min(want, n_jobs),
                    initializer=initializer,
                    initargs=initargs,
                )
            except OSError:  # process pools unavailable (restricted sandboxes)
                self._pool = None

    @property
    def pooled(self) -> bool:
        """True when jobs will run in worker processes."""
        return self._pool is not None

    def prepare(self) -> None:
        """Serial mode: run the initializer in-process now (idempotent).

        The tempering driver shares the serial worker state with its own
        finalization code, so it needs the initializer to have run before
        the first batch; pooled mode initializes inside each worker and
        this is a no-op.
        """
        if self._pool is None and self._initializer is not None and not self._inited:
            self._initializer(*self._initargs)
            self._inited = True

    def run(self, fn: Callable[[Any], Any], jobs: Sequence[Any]) -> list[Any]:
        """Apply ``fn`` to every job; results come back in job order."""
        jobs = list(jobs)
        if self._pool is not None:
            try:
                # map() preserves job order, which winner tiebreaks and
                # the tempering merge rely on.
                return list(self._pool.map(fn, jobs))
            except OSError:  # pool died mid-flight: finish serially
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None
        self.prepare()
        return [fn(job) for job in jobs]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "FanOut":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False


def graft_traces(
    tracer: Tracer | NullTracer, traces: Sequence[dict | None]
) -> None:
    """Merge worker span trees into ``tracer``, exactly once each.

    Workers record their spans into worker-local tracers and ship the
    serialized trees back with their results; the fan-out site grafts
    them here, in job order, so the parent trace carries every worker's
    phase breakdown regardless of worker count.  ``None`` entries (jobs
    that ran with tracing disabled) are skipped.
    """
    for trace in traces:
        if trace is not None:
            tracer.graft(trace)


def best_result(results: Sequence[StitchResult]) -> StitchResult:
    """The family winner under the shared pareto key.

    Fewest unplaced blocks first, then lowest ``final_cost`` — exactly
    the ordering :class:`~repro.dse.explorer.DSEExplorer` applies across
    its optimizer portfolio.  Ties break toward the earliest entry, which
    combined with :meth:`FanOut.run`'s job-order merge makes the winner
    independent of worker count.
    """
    if not results:
        raise ValueError("results must not be empty")
    best = results[0]
    for res in results[1:]:
        if pareto_key(res) < pareto_key(best):
            best = res
    return best
