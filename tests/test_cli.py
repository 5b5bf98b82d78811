"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_device_defaults(self):
        args = build_parser().parse_args(["device"])
        assert args.part == "xc7z020"

    def test_stitch_defaults(self):
        args = build_parser().parse_args(["place", "d.json"])
        assert args.placer == "sa"
        assert args.budget == 20000
        assert args.restarts == 1
        assert args.workers == 0
        assert not args.minimal

    def test_stitch_cf_and_minimal_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["place", "d.json", "--cf", "1.2", "--minimal"])

    def test_place_rejects_unknown_placer(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["place", "d.json", "--placer", "tabu"])

    def test_placer_choices_mirror_library(self):
        """Every ``--placer`` choice builds a placer of that name."""
        from repro.cli import _PLACERS, _build_placer
        from repro.place_kernel import Placer

        for name in _PLACERS:
            args = build_parser().parse_args(["place", "d.json", "--placer", name])
            placer = _build_placer(args)
            assert isinstance(placer, Placer)
            assert placer.name == name

    def test_removed_placer_commands(self):
        for cmd in ("stitch", "evolve", "temper", "gplace"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([cmd, "d.json"])

    def test_report_options(self):
        args = build_parser().parse_args(
            ["report", "-n", "100", "--rf-trees", "10", "-o", "out.md"]
        )
        assert args.n_modules == 100
        assert args.output == "out.md"

    def test_dataset_defaults(self):
        args = build_parser().parse_args(["dataset"])
        assert args.workers == 0
        assert args.cache_dir is None
        assert args.step == 0.02
        assert not args.adaptive_step
        assert not args.json


class TestCommands:
    def test_device(self, capsys):
        assert main(["device", "xc7z045"]) == 0
        out = capsys.readouterr().out
        assert "xc7z045" in out and "slices" in out

    def test_device_unknown_part(self):
        with pytest.raises(KeyError):
            main(["device", "xc7z999"])

    def test_cnv(self, capsys):
        assert main(["cnv"]) == 0
        out = capsys.readouterr().out
        assert "175 instances" in out and "74 unique" in out

    def test_mincf(self, capsys):
        assert main(["mincf", "lfsr", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "minimal CF" in out

    def test_dataset_train_roundtrip(self, tmp_path, capsys):
        ds = tmp_path / "ds.npz"
        est = tmp_path / "est.json"
        assert main(["dataset", "-n", "60", "-o", str(ds)]) == 0
        assert ds.exists()
        assert (
            main(
                ["train", "-d", str(ds), "--kind", "dt", "-o", str(est)]
            )
            == 0
        )
        assert est.exists()
        out = capsys.readouterr().out
        assert "relative error" in out

        # The saved estimator loads and predicts.
        from repro.estimator.cf_estimator import CFEstimator

        loaded = CFEstimator.load(est)
        assert loaded.kind == "dt"

    def test_dataset_workers_and_cache(self, tmp_path, capsys):
        ds = tmp_path / "ds.npz"
        cache = tmp_path / "dscache"
        argv = [
            "dataset", "-n", "30", "-o", str(ds),
            "--workers", "2", "--cache-dir", str(cache),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "worker(s)" in cold and "tool runs" in cold
        assert any(cache.glob("*.pkl"))

        # Second run hits the disk cache and says so.
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "[cache," in warm

    def test_dataset_json_and_report(self, tmp_path, capsys):
        import json

        ds = tmp_path / "ds.npz"
        report_path = tmp_path / "report.json"
        assert (
            main(
                [
                    "dataset", "-n", "20", "-o", str(ds),
                    "--adaptive-step", "--json",
                    "--report-out", str(report_path),
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_requested"] == 20
        assert payload["n_runs"] > 0
        assert json.loads(report_path.read_text()) == payload


class TestExportDesign:
    def test_export_and_reload(self, tmp_path, capsys):
        out = tmp_path / "cnv.json"
        assert main(["export-design", "-o", str(out)]) == 0
        from repro.flow.design_io import load_design

        d = load_design(out)
        assert d.n_instances == 175


class TestPreimplCommand:
    @pytest.fixture()
    def design_json(self, tmp_path):
        from repro.flow.blockdesign import BlockDesign
        from repro.flow.design_io import save_design
        from repro.rtlgen.base import RTLModule
        from repro.rtlgen.constructs import RandomLogicCloud

        d = BlockDesign(name="cli-preimpl")
        d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=120)]))
        d.add_module(RTLModule.make("n", [RandomLogicCloud(n_luts=80)]))
        d.add_instance("m0", "m")
        d.add_instance("n0", "n")
        d.connect("m0", "n0")
        path = tmp_path / "design.json"
        save_design(d, path)
        return str(path)

    def test_defaults(self):
        args = build_parser().parse_args(["preimpl", "d.json"])
        assert args.policy == "fixed"
        assert args.cf == 1.5
        assert args.workers == 0
        assert args.cache_dir is None

    def test_cold_then_warm(self, design_json, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["preimpl", design_json, "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "2/2 modules implemented" in out
        assert "2 new tool runs" in out

        assert main(["preimpl", design_json, "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "2 cache hits (100%)" in out
        assert "0 new tool runs" in out

    def test_json_output(self, design_json, capsys):
        import json

        assert main(["preimpl", design_json, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["n_modules"] == 2
        assert stats["n_infeasible"] == 0
        assert {m["module"] for m in stats["modules"]} == {"m", "n"}

    def test_infeasible_exits_nonzero(self, design_json, capsys):
        assert main(["preimpl", design_json, "--cf", "0.35"]) == 1
        out = capsys.readouterr().out
        assert "infeasible" in out

    def test_sweep_policy(self, design_json, capsys):
        assert main(["preimpl", design_json, "--policy", "sweep"]) == 0
        assert "2/2 modules implemented" in capsys.readouterr().out


class TestStitchCommand:
    @pytest.fixture()
    def design_json(self, tmp_path):
        from repro.flow.blockdesign import BlockDesign
        from repro.flow.design_io import save_design
        from repro.rtlgen.base import RTLModule
        from repro.rtlgen.constructs import RandomLogicCloud

        d = BlockDesign(name="cli-stitch")
        d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=120)]))
        for i in range(3):
            d.add_instance(f"i{i}", "m")
        for i in range(2):
            d.connect(f"i{i}", f"i{i + 1}")
        path = tmp_path / "design.json"
        save_design(d, path)
        return str(path)

    def test_stitch_runs(self, design_json, capsys):
        assert main(["place", design_json, "--budget", "800"]) == 0
        out = capsys.readouterr().out
        assert "cli-stitch on xc7z020" in out
        assert "3 placed, 0 unplaced" in out
        assert "kernel=fast" in out
        assert "setup" in out and "anneal" in out  # SA phase breakdown

    def test_evolve_defaults(self):
        args = build_parser().parse_args(["place", "d.json", "--placer", "ga"])
        assert args.budget == 20000
        assert args.population == 16
        assert args.restarts == 1

    def test_evolve_runs(self, design_json, capsys):
        assert main(["place", design_json, "--placer", "ga",
                     "--budget", "800"]) == 0
        out = capsys.readouterr().out
        assert "cli-stitch on xc7z020" in out
        assert "placed" in out
        assert "generations" in out  # GA phase breakdown, not SA's
        assert "anneal" not in out

    def test_evolve_restarts(self, design_json, capsys):
        assert (
            main(
                [
                    "place", design_json,
                    "--placer", "ga",
                    "--budget", "800",
                    "--restarts", "2",
                    "--seed", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "kernel=fast" in out

    def test_temper_defaults(self):
        args = build_parser().parse_args(["place", "d.json", "--placer", "pt"])
        assert args.budget == 20000
        assert args.chains == 4
        assert args.steps_per_round == 250
        assert args.swap_period == 4
        assert args.restarts == 1

    def test_temper_runs(self, design_json, capsys):
        assert main(["place", design_json, "--placer", "pt",
                     "--budget", "800", "--chains", "2"]) == 0
        out = capsys.readouterr().out
        assert "cli-stitch on xc7z020" in out
        assert "3 placed, 0 unplaced" in out
        assert "rounds" in out  # PT phase breakdown, not SA's

    def test_temper_restarts(self, design_json, capsys):
        assert (
            main(
                [
                    "place", design_json,
                    "--placer", "pt",
                    "--budget", "800",
                    "--chains", "2",
                    "--restarts", "2",
                    "--seed", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "kernel=fast" in out

    @pytest.mark.parametrize("placer", ["gp", "gp+sa"])
    def test_gplace_runs(self, design_json, capsys, placer):
        assert main(["place", design_json, "--placer", placer,
                     "--budget", "800", "--iters", "20"]) == 0
        out = capsys.readouterr().out
        assert "3 placed, 0 unplaced" in out
        assert f"{placer}: converged" in out

    def test_gplace_polishes_at_half_budget(self, design_json, capsys):
        assert main(["place", design_json, "--placer", "gp+sa",
                     "--budget", "800", "--iters", "20"]) == 0
        out = capsys.readouterr().out
        # The polish anneal wins here, after 400 of the 800 budget moves.
        assert "gp+sa: converged at move 4/400," in out

    def test_stitch_restarts_and_render(self, design_json, capsys):
        assert (
            main(
                [
                    "place", design_json,
                    "--budget", "800",
                    "--restarts", "2",
                    "--render",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "kernel=fast" in out
        assert "#" in out  # the occupancy map

    def test_route_weight_defaults(self):
        for cmd in ("place", "route"):
            args = build_parser().parse_args([cmd, "d.json"])
            assert args.congestion_weight == 0.0
            assert args.timing_weight == 0.0

    def test_stitch_with_route_weights(self, design_json, capsys):
        assert (
            main(
                [
                    "place", design_json,
                    "--budget", "800",
                    "--congestion-weight", "0.5",
                    "--timing-weight", "0.1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "congestion cost" in out
        assert "timing cost" in out

    def test_route_runs(self, design_json, capsys):
        assert main(["route", design_json, "--budget", "800"]) == 0
        out = capsys.readouterr().out
        assert "cli-stitch on xc7z020" in out
        assert "congestion: peak" in out
        assert "critical path" in out
        assert "3 blocks" not in out or "->" in out
