"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.scale == 0.05
        assert args.command == "simulate"

    def test_detect_options(self):
        args = build_parser().parse_args(
            ["detect", "--geo", "US-CA", "--top", "3", "--scale", "0.01"]
        )
        assert args.geo == "US-CA"
        assert args.top == 3

    def test_study_accepts_geo_list(self):
        args = build_parser().parse_args(["study", "US-TX", "US-CA"])
        assert args.geos == ["US-TX", "US-CA"]

    def test_workers_below_one_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["study", "--workers", "0"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_scenarios_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios"])

    def test_scenarios_generate_defaults(self):
        from repro.world.foundry import PACK_SEED

        args = build_parser().parse_args(["scenarios", "generate"])
        assert args.command == "scenarios"
        assert args.seed == PACK_SEED
        assert args.families == []
        assert not args.smoke

    def test_scenarios_score_accepts_backends(self):
        args = build_parser().parse_args(
            ["scenarios", "score", "sharp_outage", "--averager", "noise_aware"]
        )
        assert args.families == ["sharp_outage"]
        assert args.averager == "noise_aware"


class TestCommands:
    def test_simulate_prints_summary(self, capsys):
        assert main(["simulate", "--scale", "0.02"]) == 0
        output = capsys.readouterr().out
        assert "events" in output
        assert "isp" in output

    def test_detect_prints_spike_table(self, capsys):
        code = main(
            ["detect", "--geo", "US-WY", "--scale", "0.02", "--top", "3"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "spike time" in output
        assert "US-WY" in output

    def test_study_prints_headline_stats(self, capsys):
        code = main(["study", "--scale", "0.02", "US-WY", "US-VT"])
        assert code == 0
        output = capsys.readouterr().out
        assert "spikes" in output
        assert "top-10-state share" in output

    def test_study_resumes_from_store(self, capsys, tmp_path):
        argv = [
            "study", "--scale", "0.02", "--store", str(tmp_path / "store"),
            "US-WY",
        ]
        assert main(argv) == 0
        assert "resumed" not in capsys.readouterr().out
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "resumed 1 checkpointed geographies: US-WY" in output

    def test_report_prints_table1(self, capsys):
        code = main(["report", "--scale", "0.02", "US-WY", "US-VT"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Table 1" in output

    def test_scenarios_generate_lists_events(self, capsys):
        code = main(["scenarios", "generate", "sharp_outage", "--smoke"])
        assert code == 0
        output = capsys.readouterr().out
        assert "sharp_outage" in output
        assert "event" in output

    def test_scenarios_generate_json(self, capsys):
        import json

        code = main(["scenarios", "generate", "flapping", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flapping"]["families"][0]["kind"] == "flapping"

    def test_scenarios_generate_rejects_unknown_family(self, capsys):
        with pytest.raises(SystemExit, match="unknown families"):
            main(["scenarios", "generate", "nope"])

    def test_scenarios_score_prints_quality_table(self, capsys):
        code = main(["scenarios", "score", "sharp_outage", "--smoke"])
        assert code == 0
        output = capsys.readouterr().out
        assert "recall>=5" in output
        assert "sharp_outage" in output

    def test_scenarios_score_from_fixture_spec(self, capsys):
        import pathlib

        fixture = sorted(
            (pathlib.Path(__file__).parent / "fixtures" / "scenarios").glob(
                "*.json"
            )
        )[0]
        code = main(["scenarios", "score", "--spec", str(fixture)])
        assert code == 0
        assert "fuzz-probe" in capsys.readouterr().out
