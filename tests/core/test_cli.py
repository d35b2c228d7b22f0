"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_build_command(self):
        args = build_parser().parse_args(
            ["build", "--base", "/tmp/x", "--sf", "3", "--scale", "test"]
        )
        assert args.command == "build"
        assert args.sf == 3

    def test_query_requires_sql(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--base", "/tmp/x"])

    def test_bench_experiments_enumerated(self):
        args = build_parser().parse_args(
            ["bench", "--experiment", "table2"]
        )
        assert args.experiment == "table2"

    def test_retired_recycler_ablation_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["bench", "--experiment", "ablation-recycler"])
        assert raised.value.code == 2  # argparse usage error
        assert "ablation-recycler" in capsys.readouterr().err

    def test_invalid_scale_factor(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["build", "--base", "/tmp/x", "--sf", "5"]
            )

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_io_threads_must_be_a_positive_int(self, value, capsys):
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(
                ["query", "--base", "x", "--sql", "s", "--io-threads", value]
            )
        assert raised.value.code == 2  # argparse usage error
        assert "--io-threads" in capsys.readouterr().err

    def test_io_threads_accepts_one(self):
        args = build_parser().parse_args(
            ["query", "--base", "x", "--sql", "s", "--io-threads", "1"]
        )
        assert args.io_threads == 1

    def test_invalid_approach(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--base", "x", "--sql", "s", "--approach", "turbo"]
            )


class TestCommands:
    def test_build_and_inspect(self, tmp_path, capsys):
        base = str(tmp_path / "data")
        assert main(["build", "--base", base, "--sf", "1"]) == 0
        out = capsys.readouterr().out
        assert "8 files" in out
        assert main(["inspect", "--base", base, "--sf", "1"]) == 0
        out = capsys.readouterr().out
        assert "total: 8 chunks" in out

    def test_query_lazy(self, tmp_path, capsys):
        base = str(tmp_path / "data")
        main(["build", "--base", base, "--sf", "1"])
        capsys.readouterr()
        code = main(
            [
                "query",
                "--base",
                base,
                "--sf",
                "1",
                "--sql",
                "SELECT F.station AS s, COUNT(S.segment_no) AS n "
                "FROM gmdview GROUP BY F.station ORDER BY s",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "'s': 'ARCI'" in out
        assert "0 chunk(s) loaded" in out

    def test_query_counts_the_chunks_its_derivation_loads(
        self, tmp_path, capsys
    ):
        # A lazy H query derives its windows first (Algorithm 1); the
        # chunks that derivation decodes are part of the query's loads.
        base = str(tmp_path / "data")
        main(["build", "--base", base, "--sf", "1"])
        capsys.readouterr()
        code = main(
            [
                "query", "--base", base, "--sf", "1",
                "--sql", "SELECT H.window_start_ts, H.window_max_val FROM H "
                "WHERE H.window_station = 'ISK' "
                "AND H.window_start_ts < 1262311200000",
            ]
        )
        assert code == 0
        loaded = re.search(r"(\d+) chunk\(s\) loaded", capsys.readouterr().out)
        assert loaded is not None and int(loaded.group(1)) > 0

    def test_query_concurrent_clients(self, tmp_path, capsys):
        base = str(tmp_path / "data")
        main(["build", "--base", base, "--sf", "1"])
        capsys.readouterr()
        code = main(
            [
                "query", "--base", base, "--sf", "1", "--clients", "2",
                "--sql", "SELECT COUNT(D.sample_value) AS n FROM dataview "
                "WHERE F.station = 'ISK'",
            ]
        )
        assert code == 0
        assert "2 concurrent clients:" in capsys.readouterr().out

    def test_cache_text_and_json(self, tmp_path, capsys):
        import json

        base = str(tmp_path / "data")
        main(["build", "--base", base, "--sf", "1"])
        capsys.readouterr()
        sql = (
            "SELECT COUNT(*) AS n FROM dataview WHERE F.station = 'ISK' "
            "AND F.channel = 'BHE'"
        )
        assert main(["cache", "--base", base, "--sf", "1", "--sql", sql]) == 0
        out = capsys.readouterr().out
        assert "[memory]" in out and "[disk]" in out
        assert "insertions=2" in out

        code = main(
            ["cache", "--base", base, "--sf", "1", "--sql", sql, "--json"]
        )
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["memory"]["insertions"] == 2
        assert stats["disk"]["enabled"] == 1

    def test_cache_reopens_persistent_workdir_warm(self, tmp_path, capsys):
        import json

        base = str(tmp_path / "data")
        workdir = str(tmp_path / "db")
        main(["build", "--base", base, "--sf", "1"])
        capsys.readouterr()
        sql = (
            "SELECT COUNT(*) AS n FROM dataview WHERE F.station = 'ISK' "
            "AND F.channel = 'BHE'"
        )
        first = main(
            ["cache", "--base", base, "--sf", "1", "--sql", sql,
             "--workdir", workdir, "--json"]
        )
        assert first == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["memory"]["misses"] == 2  # cold: both chunks decoded

        again = main(
            ["cache", "--base", base, "--sf", "1", "--sql", sql,
             "--workdir", workdir, "--json"]
        )
        assert again == 0
        stats = json.loads(capsys.readouterr().out)
        # Reopened warm: the store tier served every chunk.
        assert stats["memory"]["rehydrates"] == 2
        assert stats["memory"]["misses"] == 0

    def test_query_explain(self, tmp_path, capsys):
        base = str(tmp_path / "data")
        main(["build", "--base", base, "--sf", "1"])
        capsys.readouterr()
        code = main(
            [
                "query",
                "--base",
                base,
                "--sf",
                "1",
                "--explain",
                "--sql",
                "SELECT COUNT(D.sample_value) AS n FROM dataview "
                "WHERE F.station = 'ISK'",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MAL program" in out
