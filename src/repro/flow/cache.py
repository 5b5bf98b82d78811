"""Content-addressed, persistent pre-implementation cache.

The paper's economic argument (§I, §VIII) rests on implementing each of
the 74 unique cnvW1A1 modules exactly once and reusing the result across
175 instances *and across DSE steps*.  :class:`ModuleCache` makes that
reuse durable: an implemented module is stored under a key derived from
everything that determines the implementation —

* the module's content (name, family, generator params, constructs),
* the CF policy and its parameters (a trained estimator hashes its
  weights), and
* the pre-implementation device grid.

Entries live in an in-memory dict with an optional disk layer underneath
(one pickle file per key inside ``cache_dir``), so a second flow run — or
a DSE session started tomorrow — warm-starts with zero tool runs for
unchanged modules.  Keys are SHA-256 hex digests; any change to a
module, policy or grid — or to the model sources that implement it
(:func:`model_digest`) — produces a different key, so stale entries can
never be served.  :class:`TwoLayerStore` is the store itself, shared
with :class:`~repro.dataset.cache.DatasetCache`.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.device.grid import DeviceGrid
from repro.rtlgen.base import RTLModule

if TYPE_CHECKING:  # avoid a cycle: preimpl imports cache for its store
    from repro.flow.policy import CFPolicy
    from repro.flow.preimpl import ImplementedModule

__all__ = [
    "MODEL_SOURCES",
    "CacheStats",
    "ModuleCache",
    "TwoLayerStore",
    "cache_key",
    "grid_fingerprint",
    "model_digest",
    "module_fingerprint",
    "policy_fingerprint",
]

#: The model the cached entries were computed by: these packages and
#: modules (relative to ``src/repro``) decide what a module implements to
#: and how a sweep labels, or define the pickled entry types.
MODEL_SOURCES = (
    "rtlgen",
    "synth",
    "netlist",
    "device",
    "pblock",
    "place",
    "features",
    "flow/policy.py",
    "flow/preimpl.py",
    "route/timing.py",
    "dataset/generate.py",
)


@functools.lru_cache(maxsize=None)
def model_digest() -> str:
    """SHA-256 over the :data:`MODEL_SOURCES` files, read once per process.

    Part of every :class:`ModuleCache` and
    :class:`~repro.dataset.cache.DatasetCache` key, so an edit to the
    model turns every stored entry into a miss instead of a stale hit.
    """
    root = Path(__file__).resolve().parent.parent
    h = hashlib.sha256()
    for name in MODEL_SOURCES:
        entry = root / name
        files = sorted(entry.rglob("*.py")) if entry.is_dir() else [entry]
        for path in files:
            h.update(path.relative_to(root).as_posix().encode("utf-8"))
            h.update(b"\x1f")
            h.update(path.read_bytes())
            h.update(b"\x1f")
    return h.hexdigest()


def _digest(*parts: object) -> str:
    """SHA-256 over ``repr`` of the parts (stable across processes)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return h.hexdigest()


def module_fingerprint(module: RTLModule) -> str:
    """Content hash of one module.

    Includes the module *name* because per-module placer noise is keyed
    on it — two identical construct bags with different names implement
    to different slice counts (see :mod:`repro.place.packer`).
    """
    return _digest(
        "module",
        module.name,
        module.family,
        module.params,
        tuple(repr(c) for c in module.constructs),
    )


def grid_fingerprint(grid: DeviceGrid) -> str:
    """Hash of the device geometry a pre-implementation targeted."""
    return _digest(
        "grid",
        grid.name,
        grid.n_regions,
        tuple(k.value for k in grid.kinds()),
    )


def policy_fingerprint(policy: "CFPolicy") -> str:
    """Hash of a CF policy's identity and parameters.

    Prefers the policy's own :meth:`~repro.flow.policy.CFPolicy.fingerprint`
    (which a learned policy overrides to hash its trained weights); falls
    back to the class name plus dataclass init fields.
    """
    fp = getattr(policy, "fingerprint", None)
    if callable(fp):
        return _digest("policy", fp())
    return _digest("policy", _default_policy_fields(policy))


def _default_policy_fields(policy: object) -> str:
    name = type(policy).__qualname__
    if dataclasses.is_dataclass(policy):
        parts = ",".join(
            f"{f.name}={getattr(policy, f.name)!r}"
            for f in dataclasses.fields(policy)
            if f.init
        )
        return f"{name}({parts})"
    return name


def cache_key(module: RTLModule, grid: DeviceGrid, policy: "CFPolicy") -> str:
    """The content-addressed key of one (module, grid, policy) triple."""
    return _digest(
        "preimpl",
        model_digest(),
        module_fingerprint(module),
        grid_fingerprint(grid),
        policy_fingerprint(policy),
    )


def stable_json_digest(obj: object) -> str:
    """Hash an arbitrary JSON-able object (used for estimator weights)."""
    from repro.utils.serialization import to_jsonable

    return hashlib.sha256(
        json.dumps(to_jsonable(obj), sort_keys=True).encode("utf-8")
    ).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`ModuleCache`."""

    mem_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def hits(self) -> int:
        """All hits, either layer."""
        return self.mem_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        """Total ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0


class TwoLayerStore:
    """Memory dict over an optional directory of pickled entries.

    The store under :class:`ModuleCache` and
    :class:`~repro.dataset.cache.DatasetCache`; each adds its key
    function on top.

    Parameters
    ----------
    cache_dir:
        Directory for the persistent layer; ``None`` keeps the store
        purely in-memory.  The directory is created on first use, and
        each entry is one ``<key>.pkl`` file written atomically
        (temp file + rename), so concurrent runs sharing a directory
        never observe torn entries.

    Notes
    -----
    Unreadable or corrupt disk entries (and entries :meth:`_valid`
    rejects) are treated as misses and removed, never as errors: a cache
    must degrade to "cold", not crash the run.
    """

    #: Prefix of the :meth:`describe` line.
    label = "cache"

    def __init__(self, cache_dir: str | os.PathLike | None = None) -> None:
        self._mem: dict[str, Any] = {}
        self.cache_dir = Path(cache_dir).expanduser() if cache_dir else None
        self.stats = CacheStats()

    def _path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{key}.pkl"

    def _valid(self, entry: Any) -> bool:
        """Whether a loaded disk entry has the stored type's shape."""
        return True

    def get(self, key: str) -> Any:
        """Look a key up: memory first, then disk.  ``None`` on miss."""
        entry = self._mem.get(key)
        if entry is not None:
            self.stats.mem_hits += 1
            return entry
        if self.cache_dir is not None:
            path = self._path(key)
            try:
                with open(path, "rb") as fh:
                    entry = pickle.load(fh)
                if not self._valid(entry):
                    raise pickle.UnpicklingError("bad entry shape")
            except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                    ImportError, IndexError, TypeError):
                entry = None
                try:  # corrupt entry: drop it so the next run recomputes
                    path.unlink(missing_ok=True)
                except OSError:
                    pass
            if entry is not None:
                self._mem[key] = entry
                self.stats.disk_hits += 1
                return entry
        self.stats.misses += 1
        return None

    def _put(self, key: str, entry: Any) -> None:
        """Store an entry in memory and (when configured) on disk."""
        self._mem[key] = entry
        self.stats.stores += 1
        if self.cache_dir is None:
            return
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            path = self._path(key)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            with open(tmp, "wb") as fh:
                pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            # Read-only or full filesystem: keep the in-memory layer only.
            pass

    def __len__(self) -> int:
        return len(self._mem)

    def __contains__(self, key: str) -> bool:
        if key in self._mem:
            return True
        return self.cache_dir is not None and self._path(key).exists()

    @property
    def n_disk_entries(self) -> int:
        """Entries currently persisted on disk (0 for in-memory stores)."""
        if self.cache_dir is None or not self.cache_dir.is_dir():
            return 0
        return sum(1 for _ in self.cache_dir.glob("*.pkl"))  # repro: noqa[DET005] order-free count of entries

    def clear(self, *, disk: bool = False) -> None:
        """Drop the in-memory layer; also the disk layer when ``disk``."""
        self._mem.clear()
        if disk and self.cache_dir is not None and self.cache_dir.is_dir():
            for path in self.cache_dir.glob("*.pkl"):  # repro: noqa[DET005] unconditional delete of every entry; order is irrelevant
                try:
                    path.unlink()
                except OSError:
                    pass

    def describe(self) -> str:
        """One-line summary for logs and the CLI."""
        where = str(self.cache_dir) if self.cache_dir else "<memory>"
        s = self.stats
        return (
            f"{self.label}[{where}]: {len(self._mem)} in memory, "
            f"{self.n_disk_entries} on disk; "
            f"{s.hits} hits ({s.mem_hits} mem / {s.disk_hits} disk), "
            f"{s.misses} misses"
        )


class ModuleCache(TwoLayerStore):
    """Two-layer (memory + optional disk) store of implemented modules,
    keyed by :func:`cache_key` (see :class:`TwoLayerStore`)."""

    @staticmethod
    def key(module: RTLModule, grid: DeviceGrid, policy: "CFPolicy") -> str:
        """Delegates to :func:`cache_key`."""
        return cache_key(module, grid, policy)

    def put(self, key: str, impl: "ImplementedModule") -> None:
        """Store an entry in memory and (when configured) on disk."""
        self._put(key, impl)
