"""Both on-disk caches are keyed on the model sources.

An entry computed by an older model of synthesis, packing or labeling
must never be served: :func:`repro.flow.cache.model_digest` hashes the
model sources and is part of every :class:`ModuleCache` and
:class:`DatasetCache` key, so an entry written under another digest is a
miss.
"""

import re

import pytest

from repro.dataset.cache import DatasetCache
from repro.dataset.generate import generate_dataset
from repro.device.parts import xc7z020
from repro.flow.blockdesign import BlockDesign
from repro.flow.cache import MODEL_SOURCES, ModuleCache, model_digest
from repro.flow.policy import FixedCF
from repro.flow.preimpl import implement_design
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud

_OLD = "0" * 64


@pytest.fixture(scope="module")
def grid():
    return xc7z020()


def _design() -> BlockDesign:
    d = BlockDesign(name="digest")
    d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=60)]))
    d.add_instance("i0", "m")
    return d


def test_digest_is_one_sha256_per_process():
    assert re.fullmatch(r"[0-9a-f]{64}", model_digest())
    assert model_digest() is model_digest()
    assert "synth" in MODEL_SOURCES and "flow/preimpl.py" in MODEL_SOURCES


def test_module_entry_from_another_model_is_a_miss(grid, tmp_path, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr("repro.flow.cache.model_digest", lambda: _OLD)
        old = implement_design(_design(), grid, FixedCF(1.5), cache_dir=str(tmp_path))
    assert old.stats.cache_misses == 1
    assert ModuleCache(tmp_path).n_disk_entries == 1

    fresh = implement_design(_design(), grid, FixedCF(1.5), cache_dir=str(tmp_path))
    assert fresh.stats.cache_hits == 0
    assert fresh.stats.cache_misses == 1
    assert ModuleCache(tmp_path).n_disk_entries == 2


def test_dataset_entry_from_another_model_is_a_miss(grid, tmp_path, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr("repro.dataset.cache.model_digest", lambda: _OLD)
        _, old = generate_dataset(6, seed=1, grid=grid, cache_dir=tmp_path)
    assert not old.cache_hit
    assert DatasetCache(tmp_path).n_disk_entries == 1

    _, fresh = generate_dataset(6, seed=1, grid=grid, cache_dir=tmp_path)
    assert not fresh.cache_hit
    assert DatasetCache(tmp_path).n_disk_entries == 2
