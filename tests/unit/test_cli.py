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
        assert not build_parser().parse_args(["figure1"]).batch
        # Packet jobs always merge, so the packet drivers have no --batch,
        # and `run` always offers its spec to the backend's batch lane.
        for argv in (["fct"], ["emulab"], ["run", "--protocols", "reno"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv + ["--batch"])
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --batch" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    @pytest.mark.parametrize("argv, option", [
        (["run", "--protocols", "reno", "--backend", "packet"], "--duration"),
        (["emulab"], "--duration"),
        (["fct"], "--duration"),
        (["fct"], "--rate"),
    ])
    def test_horizon_and_rate_must_be_finite_and_positive(
        self, capsys, argv, option, value
    ):
        # An infinite or NaN horizon or arrival rate never ends a packet
        # run; it is a usage error that names the option.
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [option, value])
        assert exit_info.value.code == 2
        assert f"argument {option}: must be a finite, positive number" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("argv, options", [
        ([], {}),
        (["--duration", "4"], {"duration": 4.0}),
        (["--full"], {"ns": (2, 3, 4), "bandwidths_mbps": (20, 30, 60, 100),
                      "buffers_mss": (10, 100)}),
    ], ids=["default", "duration", "full"])
    def test_emulab_horizon_is_the_drivers_unless_set(self, monkeypatch, argv, options):
        # The CLI defaulted to 10 s while run_emulab, and the write-up's
        # agreement discussion, use 20 s.
        from repro.experiments import emulab

        calls = []
        monkeypatch.setattr(emulab, "run_emulab", lambda **kwargs: calls.append(kwargs))
        monkeypatch.setattr(emulab, "render_emulab", lambda result, markdown: "")
        assert main(["emulab", *argv]) == 0
        assert calls == [options]

    def test_emulab_help_names_the_drivers_horizon(self, capsys):
        import inspect

        from repro.experiments.emulab import run_emulab

        horizon = inspect.signature(run_emulab).parameters["duration"].default
        with pytest.raises(SystemExit):
            main(["emulab", "--help"])
        assert f"(default: run_emulab's horizon, {horizon:g})" in (
            " ".join(capsys.readouterr().out.split())
        )

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("argv, option", [
        (["run", "--protocols", "reno"], "--steps"),
        (["simulate", "--protocols", "reno"], "--steps"),
        (["table1"], "--steps"),
        (["table2"], "--steps"),
        (["claims"], "--steps"),
        (["survey"], "--steps"),
        (["characterize", "--protocol", "reno"], "--steps"),
        (["table1"], "--senders"),
        (["characterize", "--protocol", "reno"], "--senders"),
        (["run", "--protocols", "reno"], "--flows"),
    ])
    def test_counts_must_be_positive_integers(self, capsys, argv, option, value):
        # A zero horizon or population used to end in a ValueError
        # traceback from the engine; it is a usage error naming the option.
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [option, value])
        assert exit_info.value.code == 2
        assert f"argument {option}: must be a positive integer" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("argv", [["table1"], ["characterize", "--protocol", "reno"]])
    def test_senders_must_be_at_least_two(self, capsys, argv):
        # One sender used to end in a ValueError traceback from the
        # fairness estimator's set-up.
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--senders", "1"])
        assert exit_info.value.code == 2
        assert "argument --senders: must be a positive integer of at least 2, got '1'" in (
            capsys.readouterr().err
        )
        assert build_parser().parse_args(argv + ["--senders", "2"]).senders == 2

    @pytest.mark.parametrize("value, message", [
        ("bogus", "unrecognized protocol spec 'bogus'"),
        ("BBR(1)", "unknown protocol family 'BBR'"),
        ("AIMD(-1,0.5)", "additive increase a must be positive"),
        ("AIMD(1,0.5,2)", "positional arguments"),
    ], ids=["unparsed", "family", "parameter", "arity"])
    @pytest.mark.parametrize("argv, option", [
        (["run", "--protocols", "reno"], "--protocols"),
        (["simulate", "--protocols", "reno"], "--protocols"),
        (["characterize", "--protocol"], "--protocol"),
    ])
    def test_protocol_spec_must_build(self, capsys, argv, option, value, message):
        # A spec that does not parse, or whose constructor rejects its
        # parameters, used to end in a traceback with exit status 1.
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [value, "--steps", "50"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: " in err and message in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("option", ["--bw", "--rtt", "--buffer"])
    def test_link_options_must_be_finite(self, capsys, option, value):
        # A NaN link used to run, printing NaN metrics; an infinite
        # bandwidth or RTT made the RTT inflation NaN.
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--protocols", "reno", "--steps", "50", "--no-cache",
                  option, value])
        assert exit_info.value.code == 2
        assert f"argument {option}: must be a finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "2", "1", "-0.1"])
    def test_loss_must_be_a_finite_rate_below_one(self, capsys, value):
        # Such a rate used to end in a ValueError traceback from the spec.
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--protocols", "reno", "--steps", "50", "--no-cache",
                  "--loss", value])
        assert exit_info.value.code == 2
        assert "argument --loss: must be a finite, non-negative number below 1" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("value", ["-1", "1.5"])
    @pytest.mark.parametrize("argv", [
        ["run", "--protocols", "reno", "--unsync-loss", "--steps", "50", "--no-cache"],
        ["run", "--protocols", "reno", "--backend", "packet", "--loss", "0.01",
         "--duration", "2", "--no-cache"],
        ["fct", "--duration", "3"],
    ])
    def test_seed_must_be_a_non_negative_integer(self, capsys, argv, value):
        # A negative seed used to reach NumPy, whose error names no option.
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--seed", value])
        assert exit_info.value.code == 2
        assert "argument --seed: must be a non-negative integer" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("value", ["70000", "-3", "x"])
    def test_port_must_be_a_tcp_port(self, capsys, value):
        # An out-of-range port used to end in an OverflowError from bind().
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--port", value])
        assert exit_info.value.code == 2
        assert "argument --port: must be a non-negative integer up to 65535" in (
            capsys.readouterr().err
        )

    def test_range_ends_are_accepted(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--protocols", "reno", "--loss", "0.999",
                                  "--seed", "0"])
        assert (args.loss, args.seed) == (0.999, 0)
        assert parser.parse_args(["fct", "--seed", "0"]).seed == 0
        assert parser.parse_args(["serve", "--port", "0"]).port == 0
        assert parser.parse_args(["serve", "--port", "65535"]).port == 65535

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

    def test_bad_protocol_spec_raises(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--protocols", "NOPE(1)"])
        assert exit_info.value.code == 2
        assert "argument --protocols: unknown protocol family 'NOPE'" in (
            capsys.readouterr().err
        )

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

    def test_run_batch_matches_serial(self, capsys, monkeypatch):
        # `run` offers its spec to the batch lane; the serial lane must
        # print the same bytes.
        import repro.backends

        argv = ["run", "--protocols", "AIMD(1,0.5)", "MIMD(1.01,0.875)",
                "--flows", "3", "--steps", "80", "--no-cache"]
        assert main(argv) == 0
        batched_out = capsys.readouterr().out
        run_specs = repro.backends.run_specs
        monkeypatch.setattr(
            repro.backends, "run_specs",
            lambda specs, backend, **options: run_specs(
                specs, backend, **{**options, "batch": False}
            ),
        )
        assert main(argv) == 0
        assert capsys.readouterr().out == batched_out

    def test_run_steps_a_large_population_on_the_kernel(self, capsys,
                                                        monkeypatch):
        from repro.backends import batch
        from repro.model.dynamics import FluidSimulator

        calls = {"run_batched": 0, "FluidSimulator": 0}
        run_batched, init = batch.run_batched, FluidSimulator.__init__

        def counted_run_batched(*args, **kwargs):
            calls["run_batched"] += 1
            return run_batched(*args, **kwargs)

        def counted_init(self, *args, **kwargs):
            calls["FluidSimulator"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(batch, "run_batched", counted_run_batched)
        monkeypatch.setattr(FluidSimulator, "__init__", counted_init)
        assert main(["run", "--protocols", "AIMD(1,0.5)", "--flows", "2000",
                     "--steps", "50", "--no-cache"]) == 0
        assert "AIMD(1,0.5) x2000" in capsys.readouterr().out
        assert calls == {"run_batched": 1, "FluidSimulator": 0}


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

    @pytest.mark.parametrize("argv, message", [
        (["--backend", "meanfield", "--protocols", "cubic"],
         "CUBIC declares no mean-field decrease trigger"),
        (["--backend", "network", "--protocols", "reno", "--unsync-loss"],
         "the network backend has no unsynchronized-loss mode"),
    ], ids=["meanfield-cubic", "network-unsync-loss"])
    def test_lowering_error_is_one_line_and_exit_two(self, capsys, argv,
                                                     message):
        # A spec its backend cannot express used to end in a
        # LoweringError traceback with exit status 1.
        assert main(["run", *argv, "--steps", "50", "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro run: {message}")
        assert captured.err.count("\n") == 1

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
