"""Framework behavior: suppressions, JSON schema, CLI wiring, clean tree."""

import json
import os
import textwrap

import pytest

import repro
from repro.analysis import analyze, checker_ids
from repro.analysis.findings import Finding
from repro.cli import main

SILENT_SWALLOW = """
    def probe():
        try:
            risky()
        except Exception:
            pass
"""

EXPECTED_CHECKERS = {
    "async-blocking",
    "async-reach",
    "blocking-under-lock",
    "cancellation",
    "durability",
    "lock-discipline",
    "lock-order",
    "swallow",
}


def _write(tmp_path, source, name="module.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


class TestSuppression:
    def test_trailing_comment_suppresses(self, tmp_path):
        _write(
            tmp_path,
            """
            def probe():
                try:
                    risky()
                except Exception:  # repro: ignore[swallow]
                    pass
            """,
        )
        report = analyze([str(tmp_path)], only=("swallow",))
        assert report.findings == []
        assert report.suppressed == 1
        assert report.ok

    def test_comment_on_preceding_line_suppresses(self, tmp_path):
        _write(
            tmp_path,
            """
            def probe():
                try:
                    risky()
                # repro: ignore[swallow]
                except Exception:
                    pass
            """,
        )
        report = analyze([str(tmp_path)], only=("swallow",))
        assert report.findings == []
        assert report.suppressed == 1

    def test_blanket_ignore_suppresses_every_checker(self, tmp_path):
        _write(
            tmp_path,
            """
            def probe():
                try:
                    risky()
                except Exception:  # repro: ignore
                    pass
            """,
        )
        report = analyze([str(tmp_path)], only=("swallow",))
        assert report.findings == []
        assert report.suppressed == 1

    def test_wrong_id_does_not_suppress(self, tmp_path):
        _write(
            tmp_path,
            """
            def probe():
                try:
                    risky()
                except Exception:  # repro: ignore[durability]
                    pass
            """,
        )
        report = analyze([str(tmp_path)], only=("swallow",))
        assert len(report.findings) == 1
        assert report.suppressed == 0
        assert not report.ok


class TestReport:
    def test_json_payload_schema(self, tmp_path):
        _write(tmp_path, SILENT_SWALLOW)
        payload = analyze([str(tmp_path)]).to_payload()
        assert set(payload) == {"summary", "findings"}
        summary = payload["summary"]
        assert set(summary) == {
            "roots",
            "checkers",
            "files_scanned",
            "findings",
            "suppressed",
            "baselined",
            "fail_on",
            "findings_by_checker",
            "ok",
        }
        assert summary["baselined"] == 0
        assert summary["fail_on"] == "warning"
        assert summary["files_scanned"] == 1
        assert summary["findings"] == 1
        assert summary["findings_by_checker"] == {"swallow": 1}
        assert summary["ok"] is False
        (finding,) = payload["findings"]
        assert set(finding) == {
            "checker",
            "severity",
            "path",
            "line",
            "message",
        }
        assert finding["checker"] == "swallow"
        assert finding["severity"] == "warning"
        assert finding["path"] == "module.py"
        assert finding["line"] > 0

    def test_parse_error_becomes_finding(self, tmp_path):
        (tmp_path / "broken.py").write_text(
            "def broken(:\n", encoding="utf-8"
        )
        report = analyze([str(tmp_path)])
        assert not report.ok
        assert report.parse_errors
        assert report.parse_errors[0].checker == "parse"

    def test_render_text_includes_location_and_tally(self, tmp_path):
        _write(tmp_path, SILENT_SWALLOW)
        text = analyze([str(tmp_path)]).render_text()
        assert "module.py:" in text
        assert "warning[swallow]" in text
        assert "1 finding(s)" in text

    def test_registry_exposes_the_invariant_catalog(self):
        assert set(checker_ids()) == EXPECTED_CHECKERS

    def test_invalid_severity_rejected(self):
        with pytest.raises(ValueError):
            Finding(
                checker="x", severity="fatal", path="a.py", line=1,
                message="m",
            )


class TestCli:
    def test_findings_exit_nonzero_and_output_written(
        self, tmp_path, capsys
    ):
        _write(tmp_path, SILENT_SWALLOW)
        out = tmp_path / "report.json"
        code = main([
            "analyze", "--root", str(tmp_path), "--json",
            "--output", str(out),
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["ok"] is False
        assert payload["metadata"]["kind"] == "analyze-report"
        # --output writes the same report even though the run failed.
        assert json.loads(out.read_text(encoding="utf-8")) == payload

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        _write(tmp_path, "VALUE = 1\n")
        code = main(["analyze", "--root", str(tmp_path)])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_checker_filter_and_unknown_id(self, tmp_path, capsys):
        _write(tmp_path, SILENT_SWALLOW)
        assert main([
            "analyze", "--root", str(tmp_path), "--checker", "durability",
        ]) == 0
        assert main([
            "analyze", "--root", str(tmp_path), "--checker", "nosuch",
        ]) == 2
        capsys.readouterr()

    def test_list_checkers(self, capsys):
        assert main(["analyze", "--list-checkers"]) == 0
        out = capsys.readouterr().out
        for checker_id in EXPECTED_CHECKERS:
            assert checker_id in out


class TestShippedTree:
    def test_src_tree_has_no_unsuppressed_findings(self):
        """The regression lock for every invariant fixed in this PR."""
        root = os.path.dirname(os.path.abspath(repro.__file__))
        report = analyze([root])
        assert report.all_findings() == []
        assert report.ok


class TestFailOn:
    def test_warning_finding_passes_under_fail_on_error(self, tmp_path):
        _write(tmp_path, SILENT_SWALLOW)
        report = analyze([str(tmp_path)], fail_on="error")
        assert len(report.findings) == 1  # still reported...
        assert report.ok  # ...but below the failure threshold

    def test_warning_finding_fails_by_default(self, tmp_path):
        _write(tmp_path, SILENT_SWALLOW)
        report = analyze([str(tmp_path)])
        assert not report.ok

    def test_parse_error_fails_regardless_of_threshold(self, tmp_path):
        _write(tmp_path, "def broken(:\n")
        report = analyze([str(tmp_path)], fail_on="error")
        assert not report.ok

    def test_unknown_severity_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fail_on"):
            analyze([str(tmp_path)], fail_on="fatal")

    def test_cli_fail_on_error_exits_zero(self, tmp_path, capsys):
        _write(tmp_path, SILENT_SWALLOW)
        code = main([
            "analyze", "--root", str(tmp_path), "--fail-on", "error",
        ])
        assert code == 0
        capsys.readouterr()


class TestBaseline:
    def test_json_report_round_trips_as_baseline(self, tmp_path, capsys):
        from repro.analysis import load_baseline

        _write(tmp_path, SILENT_SWALLOW)
        report_path = tmp_path / "baseline.json"
        assert main([
            "analyze", "--root", str(tmp_path), "--json",
            "--output", str(report_path),
        ]) == 1
        capsys.readouterr()
        keys = load_baseline(str(report_path))
        assert len(keys) == 1
        report = analyze([str(tmp_path)], baseline=keys)
        assert report.findings == []
        assert report.baselined == 1
        assert report.ok

    def test_new_findings_still_fail_with_baseline(self, tmp_path, capsys):
        _write(tmp_path, SILENT_SWALLOW)
        report_path = tmp_path / "baseline.json"
        main([
            "analyze", "--root", str(tmp_path), "--json",
            "--output", str(report_path),
        ])
        capsys.readouterr()
        # Introduce a second, unbaselined finding in another file.
        _write(tmp_path, SILENT_SWALLOW, name="fresh.py")
        code = main([
            "analyze", "--root", str(tmp_path),
            "--baseline", str(report_path),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "1 baselined" in out
        assert "fresh.py" in out

    def test_bare_findings_list_accepted(self, tmp_path):
        from repro.analysis import load_baseline

        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps([
                {
                    "checker": "swallow",
                    "path": "module.py",
                    "message": "whatever",
                    "severity": "warning",
                    "line": 5,
                }
            ]),
            encoding="utf-8",
        )
        assert load_baseline(str(path)) == {
            ("swallow", "module.py", "whatever")
        }

    def test_malformed_baseline_raises(self, tmp_path):
        from repro.analysis import load_baseline

        path = tmp_path / "baseline.json"
        path.write_text(json.dumps([{"checker": "x"}]), encoding="utf-8")
        with pytest.raises(ValueError, match="checker/path/message"):
            load_baseline(str(path))

    def test_cli_missing_baseline_file_exits_two(self, tmp_path, capsys):
        _write(tmp_path, "VALUE = 1\n")
        code = main([
            "analyze", "--root", str(tmp_path),
            "--baseline", str(tmp_path / "nope.json"),
        ])
        assert code == 2
        capsys.readouterr()
