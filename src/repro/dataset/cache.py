"""Content-addressed, persistent dataset cache.

Every estimator experiment (Table 2, Figs. 7-13, the CV/rf-size/noise
ablations) starts from the same ~2,000-module labeled sweep, and the
sweep is by far the most expensive input: each module runs synthesis,
optimization, quick placement and a multi-run minimal-CF search.
:class:`DatasetCache` makes one generation durable, the same way
:class:`~repro.flow.cache.ModuleCache` makes pre-implementations durable:
a ``(records, report)`` pair is stored under a key derived from
everything that determines the sweep —

* the sweep size and root seed,
* the device grid geometry the CF labels target,
* the CF sweep parameters (start / step / max_cf, adaptive resolution,
  trivial-module filtering), and
* the placer-noise amplitude in effect (the noise ablation regenerates
  under an override, which must never collide with the default sweep),
  and
* the model sources (:func:`~repro.flow.cache.model_digest`).

Entries live in an in-memory dict with an optional disk layer underneath
(one pickle file per key inside ``cache_dir``, written atomically), so a
benchmark session or a second ``repro dataset`` run warm-starts with
zero synthesis and zero CF-search tool runs.  Unreadable or corrupt disk
entries degrade to a miss — a cache must fall back to "cold", never
crash generation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.device.grid import DeviceGrid
from repro.flow.cache import TwoLayerStore, _digest, grid_fingerprint, model_digest

if TYPE_CHECKING:  # circular: generate imports the cache for its store
    from repro.dataset.generate import GenerationReport
    from repro.features.registry import ModuleRecord

__all__ = ["DatasetCache", "dataset_key"]


def dataset_key(
    n_modules: int,
    seed: int,
    grid: DeviceGrid,
    *,
    start: float,
    step: float,
    max_cf: float,
    skip_trivial: bool,
    adaptive_step: bool,
    noise_amplitude: float,
) -> str:
    """The content-addressed key of one generation configuration."""
    return _digest(
        "dataset",
        model_digest(),
        n_modules,
        seed,
        grid_fingerprint(grid),
        start,
        step,
        max_cf,
        skip_trivial,
        adaptive_step,
        noise_amplitude,
    )


class DatasetCache(TwoLayerStore):
    """Two-layer (memory + optional disk) store of generated datasets,
    keyed by :func:`dataset_key` (see
    :class:`~repro.flow.cache.TwoLayerStore`).  An entry is the
    ``(records, report)`` pair; a disk entry of any other shape is a
    miss.
    """

    label = "dataset-cache"

    key = staticmethod(dataset_key)

    def _valid(self, entry: object) -> bool:
        return isinstance(entry, tuple) and len(entry) == 2

    def put(
        self,
        key: str,
        records: "list[ModuleRecord]",
        report: "GenerationReport",
    ) -> None:
        """Store an entry in memory and (when configured) on disk."""
        self._put(key, (list(records), report))
