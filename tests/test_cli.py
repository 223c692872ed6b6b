"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.num_ogs == 240
        assert args.noise == 0.05

    def test_build_args(self):
        args = build_parser().parse_args(
            ["build", "out.strg", "--stream", "Lab2", "--frames", "30"]
        )
        assert args.output == "out.strg"
        assert args.stream == "Lab2"
        assert args.frames == 30

    def test_query_args(self):
        args = build_parser().parse_args(["query", "idx.strg", "-k", "3"])
        assert args.k == 3


class TestCommands:
    def test_demo_runs(self, capsys):
        code = main(["demo", "--num-ogs", "24", "--clusters", "4",
                     "--noise", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "generated 24 synthetic OGs" in out
        assert "5-NN" in out

    def test_build_and_query_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "idx.strg")
        code = main(["build", path, "--stream", "Traffic1", "--frames", "24"])
        assert code == 0
        assert "index saved" in capsys.readouterr().out
        code = main(["query", path, "--pattern", "12", "-k", "2"])
        assert code == 0
        assert "2-NN" in capsys.readouterr().out

    def test_build_unknown_stream(self, tmp_path, capsys):
        code = main(["build", str(tmp_path / "x.strg"), "--stream", "Nope"])
        assert code == 2

    def test_bench_runs(self, capsys):
        code = main(["bench", "--num-ogs", "48"])
        assert code == 0
        out = capsys.readouterr().out
        assert "STRG-Index" in out
        assert "M-tree" in out

    def test_shots_detects_scene_change(self, capsys):
        code = main(["shots", "Traffic1", "Lab2", "--frames", "12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 shot(s)" in out

    def test_shots_unknown_stream(self, capsys):
        assert main(["shots", "Nope"]) == 2

    def test_motion_query_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "idx.strg")
        assert main(["build", path, "--stream", "Traffic1",
                     "--frames", "24"]) == 0
        capsys.readouterr()
        code = main(["motion", path, "--min-velocity", "0.1"])
        assert code == 0
        assert "trajectories match" in capsys.readouterr().out
