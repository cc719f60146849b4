"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_args(self):
        args = build_parser().parse_args(
            ["--scale", "0.1", "search", "star wars", "--limit", "2"])
        assert args.command == "search"
        assert args.query == "star wars"
        assert args.scale == 0.1
        assert args.limit == 2

    def test_invalid_flavor_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "x", "--flavor", "bogus"])


class TestCommands:
    def test_search_prints_answers(self, capsys):
        code = main(["--scale", "0.1", "search", "star wars cast",
                     "--limit", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[movie.title] cast" in out
        assert "movie_full_credits" in out

    def test_search_no_answer_exit_code(self, capsys):
        code = main(["--scale", "0.1", "search", "zzzz qqqq"])
        assert code in (0, 1)  # empty -> 1; IR noise may return something

    def test_derive_lists_definitions(self, capsys):
        code = main(["--scale", "0.1", "derive", "--strategy", "schema_data",
                     "--k1", "2", "--k2", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "anchor=" in out

    def test_loganalysis(self, capsys):
        code = main(["--scale", "0.1", "loganalysis", "--unique", "150"])
        out = capsys.readouterr().out
        assert code == 0
        assert "single entity" in out
        assert "top templates" in out

    def test_evaluate_small(self, capsys):
        code = main(["--scale", "0.1", "evaluate", "--queries", "4",
                     "--raters", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 3" in out
        assert "theoretical-max" in out


class TestExplain:
    def test_explain_prints_stage_trace(self, capsys):
        code = main(["--scale", "0.1", "search", "star wars cast",
                     "--limit", "1", "--explain"])
        out = capsys.readouterr().out
        assert code == 0
        assert "stages   :" in out
        assert "plan     :" in out
        assert "retrieval: strategy=" in out
        assert "candidates:" in out

    def test_explain_shows_rejected_candidates(self, capsys):
        code = main(["--scale", "0.1", "search", "star wars cast",
                     "--limit", "1", "--explain"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rejected: below min match score" in out


class TestBatchFile:
    def test_batch_file_queries_run(self, capsys, tmp_path):
        batch = tmp_path / "queries.txt"
        batch.write_text("star wars cast\n\ngeorge clooney\n")
        code = main(["--scale", "0.1", "search", "--batch-file", str(batch),
                     "--limit", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("query   :") == 2
        assert "star wars cast" in out
        assert "george clooney" in out

    def test_batch_file_combines_with_positional(self, capsys, tmp_path):
        batch = tmp_path / "queries.txt"
        batch.write_text("george clooney\n")
        code = main(["--scale", "0.1", "search", "star wars cast",
                     "--batch-file", str(batch), "--limit", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("query   :") == 2

    def test_no_queries_at_all_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["--scale", "0.1", "search"])

    def test_load_accepts_batch_file(self, capsys, tmp_path):
        out_dir = str(tmp_path / "snap")
        assert main(["--scale", "0.1", "save", out_dir,
                     "--max-instances", "40"]) == 0
        capsys.readouterr()
        batch = tmp_path / "queries.txt"
        batch.write_text("star wars cast\ngeorge clooney\n")
        code = main(["--scale", "0.1", "load", out_dir,
                     "--batch-file", str(batch), "--limit", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("query   :") == 2


class TestBatchSearch:
    def test_multiple_queries_parse(self):
        args = build_parser().parse_args(
            ["search", "star wars", "tom hanks", "--limit", "2"])
        assert args.query == "star wars"
        assert args.more_queries == ["tom hanks"]

    def test_batch_prints_every_query_block(self, capsys):
        code = main(["--scale", "0.1", "search", "star wars cast",
                     "george clooney", "--limit", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("query   :") == 2
        assert "star wars cast" in out
        assert "george clooney" in out


class TestSaveLoad:
    def test_save_then_load_answers_queries(self, capsys, tmp_path):
        out_dir = str(tmp_path / "snap")
        code = main(["--scale", "0.1", "save", out_dir,
                     "--max-instances", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "saved collection" in out
        assert "definitions :" in out

        code = main(["--scale", "0.1", "load", out_dir, "star wars cast",
                     "--limit", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "loaded collection" in out
        assert "star wars cast" in out
        assert "movie_full_credits" in out

    def test_load_without_queries_prints_stats(self, capsys, tmp_path):
        out_dir = str(tmp_path / "snap")
        assert main(["--scale", "0.1", "save", out_dir,
                     "--max-instances", "40"]) == 0
        capsys.readouterr()
        code = main(["--scale", "0.1", "load", out_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "documents   :" in out

    def test_load_matches_direct_search(self, capsys, tmp_path):
        out_dir = str(tmp_path / "snap")
        assert main(["--scale", "0.1", "save", out_dir,
                     "--max-instances", "150"]) == 0
        capsys.readouterr()
        assert main(["--scale", "0.1", "search", "star wars cast",
                     "--limit", "2"]) == 0
        direct = capsys.readouterr().out
        assert main(["--scale", "0.1", "load", out_dir, "star wars cast",
                     "--limit", "2"]) == 0
        loaded = capsys.readouterr().out
        # Same ranked answers, scores included (the loaded path is
        # rank-identical), modulo the load-stats preamble.
        assert direct[direct.index("query   :"):] == \
               loaded[loaded.index("query   :"):]

    def test_sharded_search_matches_serial(self, capsys):
        assert main(["--scale", "0.1", "search", "star wars cast",
                     "--limit", "2"]) == 0
        serial = capsys.readouterr().out
        assert main(["--scale", "0.1", "search", "star wars cast",
                     "--limit", "2", "--shards", "2"]) == 0
        sharded = capsys.readouterr().out
        assert serial == sharded

    def test_shard_args_parse(self):
        args = build_parser().parse_args(
            ["search", "x", "--shards", "4", "--shard-mode", "process"])
        assert args.shards == 4
        assert args.shard_mode == "process"

    def test_load_rejects_missing_directory(self, tmp_path):
        from repro.errors import SnapshotError

        with pytest.raises(SnapshotError):
            main(["--scale", "0.1", "load", str(tmp_path / "missing")])

    def test_save_with_shards_persists_partitions(self, capsys, tmp_path):
        import json

        out_dir = str(tmp_path / "sharded")
        code = main(["--scale", "0.1", "save", out_dir,
                     "--max-instances", "40", "--shards", "2"])
        assert code == 0
        assert "shards      : 2" in capsys.readouterr().out
        manifest = json.loads(
            (tmp_path / "sharded" / "collection.json").read_text())
        assert manifest["shards"]["count"] == 2
        # Loading with the same shard count restores the partitions.
        assert main(["--scale", "0.1", "load", out_dir, "star wars cast",
                     "--shards", "2", "--shard-mode", "serial"]) == 0


class TestCompactCommand:
    def test_compact_directory(self, capsys, tmp_path):
        out_dir = str(tmp_path / "snap")
        assert main(["--scale", "0.1", "save", out_dir,
                     "--max-instances", "40"]) == 0
        capsys.readouterr()
        assert main(["compact", out_dir]) == 0
        out = capsys.readouterr().out
        assert "folded 0 journal delta segment(s)" in out
        # The directory still loads after compaction.
        assert main(["--scale", "0.1", "load", out_dir]) == 0

    def test_compact_empty_directory(self, capsys, tmp_path):
        # Only collection directories compact: an empty directory and a
        # bare snapshot file both exit 1 with a one-line message.
        bare = tmp_path / "bare.snap"
        bare.write_bytes(b"")
        for target in (tmp_path, bare):
            assert main(["compact", str(target)]) == 1
            out = capsys.readouterr().out
            assert "no collection.json" in out
            assert len(out.splitlines()) == 1


class TestServeShutdown:
    def test_sigterm_drains_and_exits_zero_with_sigint_ignored(self):
        # A server started as a background job inherits an ignored
        # SIGINT, so Ctrl-C cannot reach it; SIGTERM must still stop it
        # gracefully (drain, exit 0) instead of killing it mid-batch.
        import http.client
        import os
        import re
        import signal
        import subprocess
        import sys
        import threading
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "--scale", "0.05", "serve",
             "--port", "0", "--cache-size", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN))
        watchdog = threading.Timer(120.0, process.kill)
        watchdog.start()
        try:
            line = process.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            assert match, line + process.stderr.read()
            connection = http.client.HTTPConnection(
                match.group(1), int(match.group(2)), timeout=30)
            connection.request("GET", "/healthz")
            assert connection.getresponse().status == 200
            connection.close()
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=60)
        finally:
            watchdog.cancel()
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, err
        assert "shutting down (draining in-flight batches)" in out
