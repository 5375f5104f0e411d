"""The command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.bw == 20.0
        assert args.rtt == 42.0
        assert args.buffer == 100.0
        assert args.steps == 4000

    def test_table2_flags(self):
        args = build_parser().parse_args(["table2", "--packet", "--pcc-bound"])
        assert args.packet and args.pcc_bound

    def test_simulate_requires_protocols(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table9"])

    def test_workers_and_timing_flags(self):
        assert build_parser().parse_args(["--timing", "claims"]).timing
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["--workers", "4", "--timing", "claims"])
        assert exit_info.value.code == 2

    def test_workers_defaults_to_serial(self):
        # Every job runs in the repro process: there is nothing to choose.
        args = build_parser().parse_args(["claims"])
        assert not hasattr(args, "workers")
        assert not args.timing

    def test_cache_subcommand(self):
        args = build_parser().parse_args(["cache", "stats"])
        assert args.action == "stats"
        args = build_parser().parse_args(["cache", "clear", "--dir", "/tmp/x"])
        assert args.action == "clear"
        assert args.dir == "/tmp/x"

    def test_cache_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "frobnicate"])

    def test_cache_prune_flags(self):
        args = build_parser().parse_args(["cache", "prune", "--max-mb", "64"])
        assert args.action == "prune"
        assert args.max_mb == 64.0
        args = build_parser().parse_args(["cache", "prune"])
        assert args.max_mb is None
        assert not args.dry_run
        args = build_parser().parse_args(["cache", "prune", "--dry-run"])
        assert args.dry_run

    def test_batch_flags(self, capsys):
        assert build_parser().parse_args(["table2", "--batch"]).batch
        assert build_parser().parse_args(["figure1", "--batch"]).batch
        args = build_parser().parse_args(
            ["run", "--protocols", "reno", "--batch"]
        )
        assert args.batch
        assert not build_parser().parse_args(["figure1"]).batch
        # Packet jobs always merge: the packet drivers have no --batch.
        for command in ("fct", "emulab"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--batch"])
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --batch" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["--workers", "2", "claims"], "--workers"),
        (["--workers=2", "claims"], "--workers"),
        (["--markdown", "--frobnicate", "x", "table1"], "--frobnicate"),
    ])
    def test_unknown_global_option_is_named(self, argv, flag, capsys):
        # Not "invalid choice: '2'": argparse would take the value of an
        # unknown option for the subcommand.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestMain:
    def test_simulate_prints_summary(self, capsys):
        exit_code = main(
            ["simulate", "--protocols", "AIMD(1,0.5)", "reno", "--steps", "300"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "mean_utilization" in captured.out
        assert "AIMD(1,0.5)" in captured.out

    def test_figure1_runs_and_writes_json(self, capsys, tmp_path):
        out = tmp_path / "figure1.json"
        exit_code = main(["--json", str(out), "figure1"])
        assert exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["mutually_non_dominated"] is True
        assert "Figure 1" in capsys.readouterr().out

    def test_table1_fast_run(self, capsys):
        exit_code = main(["table1", "--steps", "800"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Robust-AIMD" in out

    def test_table2_fast_run_markdown(self, capsys):
        exit_code = main(["--markdown", "table2", "--steps", "800"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "improvement" in out
        assert "|" in out  # markdown table

    def test_claims_fast_run(self, capsys):
        exit_code = main(["claims", "--steps", "1200"])
        assert exit_code == 0
        assert "Claim 1" in capsys.readouterr().out

    def test_bad_protocol_spec_raises(self):
        with pytest.raises(ValueError):
            main(["simulate", "--protocols", "NOPE(1)"])

    def test_claims_with_workers_and_timing(self, capsys):
        exit_code = main(["--timing", "claims", "--steps", "800"])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "Claim 1" in captured.out
        assert "exec.serial" in captured.err  # the timing table
        with pytest.raises(SystemExit) as exit_info:
            main(["--workers", "2", "claims"])
        assert exit_info.value.code == 2

    def test_cache_stats_and_clear(self, capsys, tmp_path):
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries: 0" in out
        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        assert "removed 0" in capsys.readouterr().out

    def test_cache_stats_reports_per_backend_kinds(self, capsys, tmp_path,
                                                   monkeypatch):
        from repro.perf import cache as cache_mod

        monkeypatch.setenv(cache_mod.CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(cache_mod, "_active", None)
        for backend in ("fluid", "packet"):
            assert main(["run", "--backend", backend, "--protocols", "reno",
                         "--steps", "60"]) == 0
        capsys.readouterr()

        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "unified:fluid: 1 entries" in out
        assert "unified:packet: 1 entries" in out
        # Only the executor writes entries: no native engine entries.
        assert "\n  fluid: " not in out
        assert "\n  packet: " not in out

        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "removed 2" in out
        assert "unified:fluid" in out

    def test_cache_prune_reports_reclaimed_bytes(self, capsys, tmp_path,
                                                 monkeypatch):
        from repro.perf import cache as cache_mod

        monkeypatch.setenv(cache_mod.CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(cache_mod, "_active", None)
        monkeypatch.delenv("REPRO_CACHE_MAX_MB", raising=False)
        assert main(["run", "--protocols", "reno", "--steps", "60"]) == 0
        capsys.readouterr()

        # --max-mb 0 evicts everything and reports the reclaimed bytes.
        assert main(["cache", "prune", "--dir", str(tmp_path),
                     "--max-mb", "0"]) == 0
        out = capsys.readouterr().out
        assert "reclaimed" in out
        assert "remaining: 0 entries" in out

        # Without a cap (flag or env) pruning is a no-op.
        assert main(["cache", "prune", "--dir", str(tmp_path)]) == 0
        assert "pruned 0" in capsys.readouterr().out

    def test_cache_prune_dry_run_leaves_entries_in_place(self, capsys,
                                                         tmp_path,
                                                         monkeypatch):
        from repro.perf import cache as cache_mod

        monkeypatch.setenv(cache_mod.CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(cache_mod, "_active", None)
        monkeypatch.delenv("REPRO_CACHE_MAX_MB", raising=False)
        assert main(["run", "--protocols", "reno", "--steps", "60"]) == 0
        capsys.readouterr()

        assert main(["cache", "prune", "--dir", str(tmp_path),
                     "--max-mb", "0", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would prune" in out
        assert "would reclaim" in out

        # The rehearsal deleted nothing: stats still see the entries.
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        assert "0 entries" not in capsys.readouterr().out

    def test_cache_commands_use_the_store_the_environment_names(
        self, capsys, tmp_path, monkeypatch
    ):
        # The run stores under $REPRO_SIM_CACHE, so stats and prune
        # without --dir look there, not in ~/.cache/repro/sim.
        from repro.perf import cache as cache_mod

        monkeypatch.setenv(cache_mod.CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(cache_mod, "_active", None)
        monkeypatch.delenv("REPRO_CACHE_MAX_MB", raising=False)
        assert main(["run", "--protocols", "reno", "reno",
                     "--steps", "50"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert f"cache directory: {tmp_path}" in out
        assert "entries: 1" in out
        assert main(["cache", "prune", "--max-mb", "0", "--dry-run"]) == 0
        assert "would prune 1 cached trace(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["-5", "nan", "inf", "lots"])
    def test_cache_prune_rejects_a_bad_max_mb(self, capsys, tmp_path,
                                              monkeypatch, value):
        # A negative cap would evict every entry; a non-finite one has no
        # byte count. Both are usage errors, and nothing is deleted.
        from repro.perf import cache as cache_mod

        monkeypatch.setenv(cache_mod.CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(cache_mod, "_active", None)
        assert main(["run", "--protocols", "reno", "--steps", "50"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["cache", "prune", "--dir", str(tmp_path),
                  "--max-mb", value])
        assert exit_info.value.code == 2
        assert "--max-mb" in capsys.readouterr().err
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        assert "entries: 1" in capsys.readouterr().out

    def test_run_batch_matches_serial(self, capsys):
        argv = ["run", "--protocols", "AIMD(1,0.5)", "reno",
                "--steps", "80", "--no-cache"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--batch"]) == 0
        batched_out = capsys.readouterr().out
        assert batched_out == serial_out


class TestRunCommand:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--protocols", "reno"])
        assert args.backend == "fluid"
        assert args.steps == 2000
        assert args.duration is None
        assert not args.no_cache

    def test_run_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--backend", "quantum", "--protocols", "reno"]
            )

    @pytest.mark.parametrize(
        "backend", ["fluid", "meanfield", "network", "packet"]
    )
    def test_run_prints_summary_on_every_backend(self, capsys, backend):
        exit_code = main([
            "run", "--backend", backend, "--protocols", "AIMD(1,0.5)", "reno",
            "--steps", "80", "--no-cache",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert f"backend={backend}" in captured.out
        assert "mean_utilization" in captured.out
        assert "tail mean window" in captured.out
        assert "cache key" in captured.out

    def test_docstring_backend_line_tracks_registry(self):
        from repro import cli
        from repro.backends import backend_names

        expected = "--backend {" + ",".join(backend_names()) + "}"
        assert expected in cli.__doc__
        assert "{backends}" not in cli.__doc__  # placeholder fully resolved

    def test_run_meanfield_with_flow_multiplicity(self, capsys):
        exit_code = main([
            "run", "--backend", "meanfield", "--protocols", "AIMD(1,0.5)",
            "--flows", "100000", "--unsync-loss", "--steps", "60",
            "--no-cache",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "backend=meanfield" in captured.out
        assert "x100000" in captured.out
        assert "MSS/flow" in captured.out

    def test_run_flows_expand_on_flow_level_backends(self, capsys):
        exit_code = main([
            "run", "--backend", "fluid", "--protocols", "AIMD(1,0.5)",
            "--flows", "3", "--steps", "60", "--no-cache",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "x3" in captured.out
