"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import COMMANDS, build_parser, main

LIST_OUTPUT = """\
rq1      worst-case collusion bounds vs #analysts (RQ1)
fig3     end-to-end RRQ comparison (Fig. 3 / Fig. 10)
fig4     BFS cumulative budget (Fig. 4)
fig5     cached synopses vs workload size (Fig. 5)
fig6     additive GM vs vanilla (Fig. 6 / Fig. 11)
fig7     constraint expansion tau (Fig. 7)
fig8     delta sweep (Fig. 8)
fig9     translation validation (Fig. 9)
table1   runtime comparison on TPC-H (Table 1)
table3   runtime comparison on Adult (Table 3)
serve    HTTP daemon over a QueryService (repro.server; --data-dir adds \
the write-ahead ledger)
recover  inspect crash recovery for a durability data-dir
checkpoint  fold a durability data-dir's ledger into a checkpoint
monitor  heartbeat watcher over a running daemon's /v1/metrics (alerts + \
nonzero exit)
audit    offline budget audit of a durability data-dir (spend timelines; \
--verify cross-checks a live daemon)
"""


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for name in COMMANDS:
            args = parser.parse_args([name])
            assert args.command == name
            if name in ("table1", "table3"):
                assert not hasattr(args, "dataset")
            else:
                assert args.dataset == "adult"

    @pytest.mark.parametrize("argv", (
        ["table3", "--dataset", "tpch"],
        ["table1", "--dataset", "adult"],
        ["fig5", "--queries", "5"],
        ["fig4", "--repeats", "1"],
        ["fig8", "--repeats", "1"],
        ["fig9", "--repeats", "1"],
        ["rq1", "--repeats", "1"]))
    def test_figure_refuses_an_option_it_does_not_read(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

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
        assert capsys.readouterr().out == LIST_OUTPUT

    def test_fig4_small_run(self, capsys):
        code = main(["fig4", "--rows", "3000", "--queries", "15"])
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
        code = main(["fig9", "--rows", "3000", "--queries", "12"])
        assert code == 0
        assert "v_q <= v_i" in capsys.readouterr().out

    def test_rq1_small_run(self, capsys):
        code = main(["rq1", "--rows", "3000", "--queries", "8"])
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

    @pytest.mark.parametrize("argv, flag", (
        (["fig4", "--rows", "2000", "--queries", "-3"], "queries"),
        (["fig3", "--rows", "2000", "--queries", "0"], "queries"),
        (["fig3", "--rows", "2000", "--queries", "5", "--repeats", "-1"],
         "repeats"),
        (["table3", "--rows", "2000", "--repeats", "0"], "repeats")))
    def test_non_positive_queries_or_repeats_is_refused_with_exit_2(
            self, argv, flag, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: --{flag} must be >= 1")
        assert "Traceback" not in captured.err and "nan" not in captured.out
