"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import COMMANDS, build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for name in COMMANDS:
            args = parser.parse_args([name])
            assert args.command == name
            assert args.dataset == "adult"

    def test_options(self):
        args = build_parser().parse_args(
            ["fig3", "--dataset", "tpch", "--rows", "500", "--queries", "10",
             "--repeats", "1", "--seed", "9"]
        )
        assert (args.dataset, args.rows, args.queries, args.repeats,
                args.seed) == ("tpch", 500, 10, 1, 9)

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    @pytest.mark.parametrize("flag", (["--backend", "mp"],
                                      ["--workers", "2"],
                                      ["--shards", "4"],
                                      ["--micro-batch"]))
    def test_serve_has_one_execution_path(self, flag, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["serve", *flag])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in COMMANDS:
            assert name in out

    def test_fig4_small_run(self, capsys):
        code = main(["fig4", "--rows", "3000", "--queries", "15",
                     "--repeats", "1"])
        assert code == 0
        assert "BFS cumulative budget" in capsys.readouterr().out

    def test_table3_small_run(self, capsys):
        code = main(["table3", "--rows", "3000", "--queries", "10",
                     "--repeats", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "runtime performance comparison" in out
        assert "chorus" in out

    def test_fig9_small_run(self, capsys):
        code = main(["fig9", "--rows", "3000", "--queries", "12",
                     "--repeats", "1"])
        assert code == 0
        assert "v_q <= v_i" in capsys.readouterr().out

    def test_rq1_small_run(self, capsys):
        code = main(["rq1", "--rows", "3000", "--queries", "8",
                     "--repeats", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "collusion" in out
        assert "lower bound" in out


class TestRefusedValues:
    @pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
    def test_serve_refuses_a_non_finite_epsilon_before_binding(
            self, value, capsys, monkeypatch):
        from repro.server import daemon

        def never(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("a port was bound")

        monkeypatch.setattr(daemon, "ReproServer", never)
        # ``--epsilon=-inf``: a separate "-inf" would parse as a flag.
        code = main(["serve", "--rows", "2000", "--port", "0",
                     f"--epsilon={value}"])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", (["fig3", "--rows", "-5"],
                                      ["serve", "--rows", "-1", "--port",
                                       "0"]))
    def test_negative_rows_is_refused_with_exit_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --rows must be >= 0")
        assert "Traceback" not in err
