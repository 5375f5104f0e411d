"""FCT study driver and the extended CLI commands."""

import pytest

from repro.cli import main
from repro.experiments.fct import default_backgrounds, render_fct, run_fct_study
from repro.model.link import Link
from repro.protocols import presets


class TestFctStudy:
    @pytest.fixture(scope="class")
    def study(self):
        # Reduced: two backgrounds, shorter horizon.
        return run_fct_study(
            link=Link.from_mbps(20, 42, 100),
            backgrounds={"none": None, "pcc-like": presets.pcc_like},
            rate_per_s=1.0,
            arrival_window=10.0,
            duration=20.0,
        )

    def test_pcc_background_hurts_short_flows(self, study):
        assert study.row("pcc-like").mean_fct > 2 * study.row("none").mean_fct

    def test_ordering(self, study):
        assert study.ordering() == ["none", "pcc-like"]

    def test_row_lookup(self, study):
        with pytest.raises(KeyError):
            study.row("bbr")

    def test_render(self, study):
        text = render_fct(study)
        assert "pcc-like" in text
        assert "least harmful" in text

    def test_jsonable(self, study, tmp_path):
        from repro.experiments.results import load_result, save_result

        loaded = load_result(save_result(study, tmp_path / "fct.json"))
        assert len(loaded["rows"]) == 2

    def test_empty_workload_is_refused_before_anything_runs(self):
        # Seed 42 draws no arrival within 1.5 s at 1.5 flows/s.
        from repro.exec import default_executor, reset_default_executor

        reset_default_executor()
        with pytest.raises(ValueError, match=(
            r"1\.5 s arrival window at 1\.5 flows/s with seed 42"
        )):
            run_fct_study(rate_per_s=1.5, arrival_window=1.5, duration=2.0,
                          seed=42)
        assert default_executor().snapshot()["submissions"] == 0

    def test_default_backgrounds_cover_the_comparators(self):
        names = set(default_backgrounds())
        assert {"none", "reno", "cubic", "robust-aimd", "pcc-like"} <= names

    def test_batched_study_is_bit_identical_to_serial(self, study):
        batched = run_fct_study(
            link=Link.from_mbps(20, 42, 100),
            backgrounds={"none": None, "pcc-like": presets.pcc_like},
            rate_per_s=1.0,
            arrival_window=10.0,
            duration=20.0,
            replications=2,
            batch=True,
        )
        serial = run_fct_study(
            link=Link.from_mbps(20, 42, 100),
            backgrounds={"none": None, "pcc-like": presets.pcc_like},
            rate_per_s=1.0,
            arrival_window=10.0,
            duration=20.0,
            replications=2,
        )
        assert batched.to_jsonable() == serial.to_jsonable()


class TestCliExtendedCommands:
    def test_characterize_prints_scores_and_theory(self, capsys):
        exit_code = main(
            ["characterize", "--protocol", "AIMD(1,0.5)", "--steps", "800"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "efficiency" in out
        assert "theory:" in out

    def test_characterize_unknown_protocol(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["characterize", "--protocol", "BBR(1)"])
        assert exit_info.value.code == 2
        assert "argument --protocol: unknown protocol family 'BBR'" in (
            capsys.readouterr().err
        )

    def test_characterize_extensions_flag(self, capsys):
        exit_code = main(
            ["characterize", "--protocol", "reno", "--steps", "800",
             "--extensions"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "responsiveness" in out
        assert "churn_resilience" in out

    @pytest.mark.slow
    def test_emulab_subcommand_quick(self, capsys):
        exit_code = main(["emulab", "--duration", "4"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "Hierarchy agreement" in out

    def test_fct_subcommand(self, capsys):
        exit_code = main(
            ["fct", "--duration", "10", "--rate", "1.0", "--mean-size", "30"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "least harmful" in out

    def test_fct_empty_workload_is_a_one_line_error(self, capsys):
        assert main(["fct", "--duration", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("repro fct: no flow arrives")
        assert "arrival window" in captured.err

    def test_fct_replications_pool_the_workload(self):
        kwargs = dict(
            link=Link.from_mbps(20, 42, 100),
            backgrounds={"none": None},
            rate_per_s=1.0,
            arrival_window=6.0,
            duration=10.0,
        )
        one = run_fct_study(**kwargs, replications=1)
        two = run_fct_study(**kwargs, replications=2)
        assert two.rows[0].offered > one.rows[0].offered
