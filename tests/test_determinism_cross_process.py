"""Cross-process determinism: the whole pipeline must produce identical
results in separate interpreter runs (no hidden global state, no salted
hashing, no wall-clock)."""

import subprocess
import sys

_SNIPPET = """
import hashlib, json
from repro.dataset import generate_dataset, balance_dataset
from repro.device import xc7z020
from repro.flow import run_rw_flow, MinimalCFPolicy, SAParams
from repro.flow.blockdesign import BlockDesign
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud

records, _ = generate_dataset(40, seed=3)
labels = [(r.name, r.min_cf) for r in records]

d = BlockDesign(name="det")
d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=150)]))
for i in range(4):
    d.add_instance(f"i{i}", "m")
for i in range(3):
    d.connect(f"i{i}", f"i{i+1}")
res = run_rw_flow(d, xc7z020(), MinimalCFPolicy(),
                  sa_params=SAParams(max_iters=2000, seed=5))
placement = sorted((k, v) for k, v in res.stitch.placements.items())

payload = json.dumps([labels, placement, res.stitch.final_cost])
print(hashlib.sha256(payload.encode()).hexdigest())
"""

# The dataset sweep must label identically in any interpreter and with
# any worker count; __WORKERS__ is substituted before running.
_DATASET_SNIPPET = """
import hashlib, json
from repro.dataset import generate_dataset

records, report = generate_dataset(32, seed=4, workers=__WORKERS__)
payload = json.dumps(
    [[(r.name, r.min_cf, r.sweep_step) for r in records], report.n_runs]
)
print(hashlib.sha256(payload.encode()).hexdigest())
"""

# best_of over the SA placer must pick the same winner in any interpreter and with any
# worker count; __N_WORKERS__ is substituted before running.
_RESTART_SNIPPET = """
import hashlib, json
from repro.device import xc7z020
from repro.flow import SAParams
from repro.flow.blockdesign import BlockDesign
from repro.flow.placers import SAPlacer
from repro.flow.restarts import best_of
from repro.place.shapes import Footprint
from repro.device.column import ColumnKind
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud

d = BlockDesign(name="det-restart")
d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
fp = Footprint((ColumnKind.CLBLL, ColumnKind.CLBLM), (10, 10))
for i in range(8):
    d.add_instance(f"i{i}", "m")
for i in range(7):
    d.connect(f"i{i}", f"i{i+1}", width=4)
best = best_of(SAPlacer(SAParams(max_iters=1500, seed=2)),
               d, {"m": fp}, xc7z020(),
               seeds=[2, 3, 4], n_workers=__N_WORKERS__)
placement = sorted((k, v) for k, v in best.placements.items())
payload = json.dumps([placement, best.final_cost, best.stats.seed])
print(hashlib.sha256(payload.encode()).hexdigest())
"""


# best_of over the GA placer must be bitwise identical in any
# interpreter and with any worker count; __N_WORKERS__ is substituted
# before running.
_EVOLVE_SNIPPET = """
import hashlib, json
from repro.device import xc7z020
from repro.device.column import ColumnKind
from repro.flow.evolve import GAParams
from repro.flow.placers import GAPlacer
from repro.flow.restarts import best_of
from repro.flow.blockdesign import BlockDesign
from repro.place.shapes import Footprint
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud

d = BlockDesign(name="det-evolve")
d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
fp = Footprint((ColumnKind.CLBLL, ColumnKind.CLBLM), (10, 10))
for i in range(8):
    d.add_instance(f"i{i}", "m")
for i in range(7):
    d.connect(f"i{i}", f"i{i+1}", width=4)
best = best_of(GAPlacer(GAParams(move_budget=1500, seed=2)),
               d, {"m": fp}, xc7z020(),
               seeds=[2, 3, 4], n_workers=__N_WORKERS__)
placement = sorted((k, v) for k, v in best.placements.items())
payload = json.dumps([placement, best.final_cost, best.stats.seed])
print(hashlib.sha256(payload.encode()).hexdigest())
"""


# Parallel tempering must be bitwise identical in any interpreter and
# with any worker count — n_workers here fans the *chains* out inside
# one temper() run, the tightest determinism contract in the flow;
# __N_WORKERS__ is substituted before running.
_TEMPER_SNIPPET = """
import hashlib, json
from repro.device import xc7z020
from repro.device.column import ColumnKind
from repro.flow.blockdesign import BlockDesign
from repro.flow.tempering import PTParams, temper
from repro.place.shapes import Footprint
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud

d = BlockDesign(name="det-temper")
d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
fp = Footprint((ColumnKind.CLBLL, ColumnKind.CLBLM), (10, 10))
for i in range(8):
    d.add_instance(f"i{i}", "m")
for i in range(7):
    d.connect(f"i{i}", f"i{i+1}", width=4)
res = temper(d, {"m": fp}, xc7z020(),
             PTParams(max_iters=2000, n_chains=4, steps_per_round=100,
                      seed=2),
             n_workers=__N_WORKERS__)
placement = sorted((k, v) for k, v in res.placements.items())
payload = json.dumps([placement, res.final_cost, list(res.history),
                      res.stats.move_attempts, res.stats.illegal_moves])
print(hashlib.sha256(payload.encode()).hexdigest())
"""


# The gp+sa pipeline must be bitwise identical in any interpreter and
# with any restart worker count: the analytic stage is pure seeded
# numpy (one jitter draw, fixed iteration counts) and the polish
# restarts fan its placements out verbatim; __N_WORKERS__ is
# substituted before running.
_GPLACE_SNIPPET = """
import hashlib, json
from repro.device import xc7z020
from repro.device.column import ColumnKind
from repro.flow.blockdesign import BlockDesign
from repro.flow.global_place import GPParams, global_place
from repro.flow.placers import SAPlacer
from repro.flow.restarts import best_of
from repro.flow.stitcher import SAParams
from repro.place.shapes import Footprint
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud

d = BlockDesign(name="det-gplace")
d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
fp = Footprint((ColumnKind.CLBLL, ColumnKind.CLBLM), (10, 10))
for i in range(8):
    d.add_instance(f"i{i}", "m")
for i in range(7):
    d.connect(f"i{i}", f"i{i+1}", width=4)
warm = global_place(d, {"m": fp}, xc7z020(), GPParams(seed=2))
best = best_of(SAPlacer(SAParams(max_iters=750, seed=2),
                        initial_placements=warm.placements),
               d, {"m": fp}, xc7z020(),
               seeds=[2, 3, 4], n_workers=__N_WORKERS__)
wp = sorted((k, v) for k, v in warm.placements.items())
placement = sorted((k, v) for k, v in best.placements.items())
payload = json.dumps([wp, warm.final_cost,
                      list(warm.stats.temperature_trace),
                      placement, best.final_cost, best.stats.seed])
print(hashlib.sha256(payload.encode()).hexdigest())
"""


def _run(snippet: str = _SNIPPET) -> str:
    out = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


class TestCrossProcessDeterminism:
    def test_two_fresh_interpreters_agree(self):
        assert _run() == _run()

    def test_stitch_best_worker_independent(self):
        """Same seed list => same winner, serial or parallel, any process."""
        serial = _run(_RESTART_SNIPPET.replace("__N_WORKERS__", "0"))
        serial_again = _run(_RESTART_SNIPPET.replace("__N_WORKERS__", "0"))
        parallel = _run(_RESTART_SNIPPET.replace("__N_WORKERS__", "2"))
        assert serial == serial_again == parallel

    def test_evolve_best_worker_independent(self):
        """GA runs are bitwise identical across processes and workers."""
        serial = _run(_EVOLVE_SNIPPET.replace("__N_WORKERS__", "0"))
        serial_again = _run(_EVOLVE_SNIPPET.replace("__N_WORKERS__", "0"))
        parallel = _run(_EVOLVE_SNIPPET.replace("__N_WORKERS__", "2"))
        assert serial == serial_again == parallel

    def test_temper_worker_independent(self):
        """One temper() run is bitwise identical across processes and
        for any chain-level worker count."""
        serial = _run(_TEMPER_SNIPPET.replace("__N_WORKERS__", "0"))
        serial_again = _run(_TEMPER_SNIPPET.replace("__N_WORKERS__", "0"))
        parallel = _run(_TEMPER_SNIPPET.replace("__N_WORKERS__", "4"))
        assert serial == serial_again == parallel

    def test_gplace_warm_start_worker_independent(self):
        """The analytic warm start and its polish restarts are bitwise
        identical across processes and restart worker counts."""
        serial = _run(_GPLACE_SNIPPET.replace("__N_WORKERS__", "0"))
        serial_again = _run(_GPLACE_SNIPPET.replace("__N_WORKERS__", "0"))
        parallel = _run(_GPLACE_SNIPPET.replace("__N_WORKERS__", "2"))
        assert serial == serial_again == parallel

    def test_dataset_generation_worker_independent(self):
        """Same sweep config => same labels, 1 or 4 workers, any process."""
        serial = _run(_DATASET_SNIPPET.replace("__WORKERS__", "1"))
        serial_again = _run(_DATASET_SNIPPET.replace("__WORKERS__", "1"))
        parallel = _run(_DATASET_SNIPPET.replace("__WORKERS__", "4"))
        assert serial == serial_again == parallel
