"""Tests for the command-line interface."""

import json

import pytest

from repro import cli
from repro.cli import build_arg_parser, main


class TestCLI:
    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "spider" in out
        assert "bank_financials" in out

    def test_eval_zeroshot(self, capsys):
        assert main([
            "eval", "--dataset", "spider", "--model", "codes-1b",
            "--mode", "zeroshot", "--limit", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "EX%" in out
        assert "per-stage timing for spider" in out
        assert "candidate_gen" in out

    def test_eval_batch_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["eval", "--dataset", "spider", "--limit", "1", "--batch"])
        assert exited.value.code == 2
        assert "--batch" in capsys.readouterr().err

    def test_eval_fewshot(self, capsys):
        assert main([
            "eval", "--dataset", "spider", "--model", "codes-1b",
            "--mode", "fewshot", "--shots", "1", "--limit", "4",
        ]) == 0
        assert "codes-1b" in capsys.readouterr().out

    @pytest.mark.parametrize("shots", ["0", "-2"])
    def test_eval_fewshot_without_shots_exits_2(self, shots, capsys):
        with pytest.raises(SystemExit) as exited:
            main([
                "eval", "--dataset", "spider", "--model", "codes-1b",
                "--mode", "fewshot", "--shots", shots, "--limit", "4",
            ])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert "--shots" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("mode,shots", [("zeroshot", "7"), ("sft", "-4")])
    def test_eval_rejects_shots_outside_fewshot(self, mode, shots, capsys, monkeypatch):
        def no_dataset(name):
            raise AssertionError("a dataset was built before the flag check")

        monkeypatch.setattr(cli, "_build_dataset", no_dataset)
        with pytest.raises(SystemExit) as exited:
            main([
                "eval", "--dataset", "spider", "--model", "codes-1b",
                "--mode", mode, "--shots", shots, "--limit", "4",
            ])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert "--shots" in captured.err
        assert captured.out == ""

    def test_ask_command(self, capsys):
        assert main([
            "ask", "--dataset", "bank_financials", "--model", "codes-1b",
            "--question", "How many clients are there?",
        ]) == 0
        out = capsys.readouterr().out
        assert "SQL:" in out
        assert "SELECT" in out

    def test_augment_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "pairs.json"
        assert main([
            "augment", "--domain", "bank_financials",
            "--question-to-sql", "3", "--sql-to-question", "5",
            "--out", str(out_file),
        ]) == 0
        payload = json.loads(out_file.read_text())
        assert len(payload) >= 5
        assert {"question", "sql", "db_id"} <= set(payload[0])

    def test_unknown_dataset_exits(self):
        with pytest.raises(SystemExit):
            main(["eval", "--dataset", "nope", "--limit", "1"])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_arg_parser().parse_args(["eval", "--model", "gpt-9"])

    def test_serve_jsonl_roundtrip(self, tmp_path, capsys):
        # One server and an inline shard router answer the same
        # requests with the same SQL; latency is wall time.
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"question": "How many clients are there?", "id": "a"})
            + "\n"
            + json.dumps({"question": "List all districts", "id": "b"})
            + "\n"
        )
        answers = []
        for flags in ([], ["--workers", "2", "--transport", "inline"]):
            assert main([
                "serve", "--dataset", "bank_financials", "--model", "codes-1b",
                "--input", str(requests), *flags,
            ]) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            assert len(lines) == 2, flags
            answers.append([
                {key: json.loads(line)[key] for key in ("id", "status", "sql", "tier")}
                for line in lines
            ])
        first, second = answers[0]
        assert [first["id"], second["id"]] == ["a", "b"]  # input order
        assert first["status"] == "completed"
        assert "SELECT" in first["sql"]
        assert answers[1] == answers[0]

    def test_serve_process_transport_matches_inline_at_high_watermarks(
        self, tmp_path, capsys
    ):
        # With the watermarks out of reach every answer is beam-tier, so
        # pipe timing cannot change the tier mix and the forked workers
        # answer byte for byte as inline ones do.
        from repro.datasets import build_spider

        requests = tmp_path / "requests.jsonl"
        requests.write_text("".join(
            json.dumps({"question": e.question, "db_id": e.db_id, "id": f"q{i}"})
            + "\n"
            for i, e in enumerate(build_spider().dev[:8])
        ))
        answers = {}
        for transport in ("inline", "process"):
            assert main([
                "serve", "--dataset", "spider", "--model", "codes-1b",
                "--input", str(requests), "--workers", "2",
                "--transport", transport,
                "--skeleton-watermark", "100", "--sentinel-watermark", "200",
            ]) == 0
            answers[transport] = [
                {key: json.loads(line)[key] for key in ("id", "status", "sql", "tier")}
                for line in capsys.readouterr().out.strip().splitlines()
            ]
        assert len(answers["inline"]) == 8
        assert {a["tier"] for a in answers["inline"]} == {"beam"}
        assert answers["process"] == answers["inline"]

    def test_serve_rejects_duplicate_ids(self, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            "".join(
                json.dumps({"question": question, "id": "a"}) + "\n"
                for question in ("How many clients are there?", "List all districts")
            )
        )
        assert main([
            "serve", "--dataset", "bank_financials", "--input", str(requests),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "duplicate request id 'a'" in captured.err

    @pytest.mark.parametrize(
        ("line", "reason"),
        [
            ("{not json", "not valid JSON"),
            ('["How many clients are there?"]', "expected a JSON object, got list"),
            ('{"id": "b"}', 'missing "question"'),
            ('{"question": 5}', '"question" must be a string, got 5'),
            (
                '{"question": "List all districts", "deadline_s": "soon"}',
                "\"deadline_s\" must be a positive number, got 'soon'",
            ),
            (
                '{"question": "List all districts", "deadline_s": 0}',
                '"deadline_s" must be a positive number, got 0',
            ),
        ],
        ids=[
            "not-json", "not-object", "no-question",
            "question-type", "deadline-type", "deadline-zero",
        ],
    )
    def test_serve_rejects_malformed_line(self, tmp_path, capsys, line, reason):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"question": "How many clients are there?"})
            + "\n\n"
            + line
            + "\n"
        )
        assert main([
            "serve", "--dataset", "bank_financials", "--input", str(requests),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro serve: line 3: {reason}")
        assert captured.err.count("\n") == 1  # one message, no traceback

    def test_providers_percentiles_are_nearest_rank(self, capsys, monkeypatch):
        from repro.lm import providers
        from repro.serving import nearest_rank

        routers, build = [], providers.build_router

        def build_router(*args, **kwargs):
            routers.append(build(*args, **kwargs))
            return routers[-1]

        monkeypatch.setattr(providers, "build_router", build_router)
        assert main(["providers", "--seed", "0"]) == 0
        printed = dict(
            line.rsplit(maxsplit=1)
            for line in capsys.readouterr().out.splitlines()
            if line.startswith(("p50 ", "p95 "))
        )
        (router,) = routers
        assert len(router.effective_latencies) == 500
        assert printed == {
            f"p{p} effective latency s":
                f"{nearest_rank(router.effective_latencies, p):.6f}"
            for p in (50, 95)
        }

    def test_loadgen_seed_is_byte_stable(self, capsys):
        argv = [
            "loadgen", "--dataset", "bank_financials", "--model", "codes-1b",
            "--seed", "7", "--n", "24", "--rate", "40",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "throughput rps" in first
        assert "shed total" in first


#: Bad command lines.  Before they were checked at parse time, the
#: first eleven ended in a traceback, the next four exited 1, and the
#: last four ran: ``--limit -1`` scored all but the last example, two
#: ``--splits`` typos were audited as another split, and argparse's
#: prefix matching took ``--deadline`` for ``--deadline-s``.
USAGE_ERRORS = [
    ["providers", "--model", "nope"],
    ["providers", "--failure-rate", "2"],
    ["shardmap", "--workers", "0"],
    ["shardmap", "--target-workers", "0"],
    ["loadgen", "--rate", "0"],
    ["serve", "--batch-size", "0"],
    ["serve", "--workers", "2", "--virtual-nodes", "0"],
    ["eval", "--max-retries", "-1"],
    ["ask", "--db-id", "nope", "--question", "How many clients are there?"],
    ["serve", "--queue-capacity", "0"],
    ["loadgen", "--n", "0"],
    ["eval", "--dataset", "nope"],
    ["lint", "--dataset", "nope"],
    ["eval", "--dialect", "tsql"],
    ["eval", "--dialect", "ansi", "--ts"],
    ["eval", "--limit", "-1"],
    ["lint", "--splits", "bogus"],
    ["equiv", "--splits", "bogus"],
    ["eval", "--deadline", "5"],
]


@pytest.mark.parametrize(
    "argv", USAGE_ERRORS, ids=[" ".join(argv[:5]) for argv in USAGE_ERRORS]
)
def test_usage_error_exits_2_with_one_error_line(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count(f"repro {argv[0]}: error: ") == 1
    assert "Traceback" not in captured.err


class TestCheckExitCodes:
    """``repro check`` exit codes are a stable contract:
    0 = clean, 1 = findings, 2 = usage error."""

    def _tree(self, tmp_path, source: str):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "mod.py").write_text(source, encoding="utf-8")
        return root

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = self._tree(tmp_path, "x = 1\n")
        assert main(["check", "--root", str(root)]) == 0
        assert "staticcheck: OK" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        root = self._tree(tmp_path, "import time\nt = time.time()\n")
        assert main(["check", "--root", str(root)]) == 1
        assert "ARCH001" in capsys.readouterr().out

    def test_missing_root_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["check", "--root", str(tmp_path / "nope")])
        assert exited.value.code == 2
        assert "no such directory" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        root = self._tree(tmp_path, "x = 1\n")
        with pytest.raises(SystemExit) as exited:
            main(["check", "--root", str(root), "--rules", "NOPE999"])
        assert exited.value.code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_unknown_explain_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["check", "--explain", "NOPE999"])
        assert exited.value.code == 2
        assert "unknown rule" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--baseline", "baseline.json"], ["--write-baseline"]],
        ids=["baseline", "write-baseline"],
    )
    def test_baseline_options_are_gone(self, tmp_path, capsys, flags):
        root = self._tree(tmp_path, "x = 1\n")
        with pytest.raises(SystemExit) as exited:
            main(["check", "--root", str(root), *flags])
        assert exited.value.code == 2
        assert flags[0] in capsys.readouterr().err

    def test_unknown_argument_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            build_arg_parser().parse_args(["check", "--bogus"])
        assert excinfo.value.code == 2


class TestCheckFix:
    def test_fix_prints_diff_and_is_idempotent(self, tmp_path, capsys):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "mod.py").write_text(
            "x = 1  # staticcheck: disable=ARCH001\n", encoding="utf-8"
        )
        assert main(["check", "--root", str(root), "--fix"]) == 0
        out = capsys.readouterr().out
        assert "--- a/mod.py" in out
        assert "-x = 1  # staticcheck: disable=ARCH001" in out
        assert "+x = 1" in out
        assert "fixed 1 file(s)" in out
        assert (root / "mod.py").read_text(encoding="utf-8") == "x = 1\n"

        assert main(["check", "--root", str(root), "--fix"]) == 0
        again = capsys.readouterr().out
        assert "fixed 0 file(s)" in again
        assert "---" not in again  # second run: empty diff

    def test_fix_leaves_real_findings_failing(self, tmp_path, capsys):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "mod.py").write_text(
            "import time\nt = time.time()\n", encoding="utf-8"
        )
        # nothing fixable, and the ARCH001 finding still fails the run.
        assert main(["check", "--root", str(root), "--fix"]) == 1
        assert "fixed 0 file(s)" in capsys.readouterr().out

    def test_fix_leaves_a_reason_without_parentheses_alone(self, tmp_path, capsys):
        root = tmp_path / "tree"
        root.mkdir()
        source = (
            "import time\n"
            "t = time.time()  # staticcheck: disable=ARCH001 clock read is fine here\n"
        )
        (root / "mod.py").write_text(source, encoding="utf-8")
        assert main(["check", "--root", str(root), "--fix"]) == 0
        assert "fixed 0 file(s)" in capsys.readouterr().out
        assert (root / "mod.py").read_text(encoding="utf-8") == source


class TestCheckCache:
    def test_warm_run_output_identical(self, tmp_path, capsys):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "mod.py").write_text(
            "import time\nt = time.time()\n", encoding="utf-8"
        )
        cache = tmp_path / "cache.json"
        argv = [
            "check", "--root", str(root),
            "--cache", str(cache), "--format", "json",
        ]
        assert main(argv) == 1
        cold = capsys.readouterr().out
        assert cache.exists()
        assert main(argv) == 1
        warm = capsys.readouterr().out
        assert cold == warm
