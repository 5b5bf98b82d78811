"""Golden digests of the synthesized netlist statistics.

Every downstream model (quick placer, packer, features, labels) reads a
module only through its :class:`NetlistStats`, so a digest of the stats
of the paper-sized sweep and of every cnvW1A1 module pins the whole
synthesis + statistics pipeline bitwise.  Each module is hashed twice:
raw out of ``synthesize`` and after ``opt_design``.
"""

import dataclasses
import hashlib

from repro.netlist.stats import compute_stats
from repro.rtlgen.sweep import generate_sweep
from repro.synth.mapper import opt_design, synthesize

#: ``generate_sweep(2000, 0)``: 2,000 modules, 4,000 netlists.
_SWEEP_GOLDEN = "ec0d2a3303efeaa5e55b2062d7c3b84fa49bd45fcc6f9b09406d98391cee07f6"
#: The 74 unique cnvW1A1 modules: 148 netlists.
_CNV_GOLDEN = "7e4d05f4c370eb36f832757457dcf424b380616d6c7646b5373baee9f9d0ec2e"


def _stats_digest(modules) -> str:
    h = hashlib.sha256()
    for module in modules:
        raw = synthesize(module)
        for netlist in (raw, opt_design(raw)):
            h.update(repr(dataclasses.astuple(compute_stats(netlist))).encode())
    return h.hexdigest()


def test_sweep_stats_golden():
    assert _stats_digest(generate_sweep(2000, 0)) == _SWEEP_GOLDEN


def test_cnv_stats_golden(cnv):
    modules = list(cnv.modules.values())
    assert len(modules) == 74
    assert _stats_digest(modules) == _CNV_GOLDEN
