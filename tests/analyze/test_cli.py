"""The ``repro effects`` / ``repro hotpath`` CLI surfaces: clean-tree
runs, output formats, SARIF schema validity (shared emitter, also
exercised through ``repro lint --sarif``), JSON round-trip, and the
ratchet baselines."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analyze import findings_from_json
from repro.cli import main

REPO = Path(__file__).resolve().parents[2]
SRC = str(REPO / "src" / "repro")
BASELINE = REPO / "analyze-baseline.json"
HOT_BASELINE = REPO / "hotpath-baseline.json"

BAD_FIXTURE = """
class Mutex:
    pass

class Tracker:
    def __init__(self):
        self._mutex = Mutex()
        self._count = 0

    def bump(self):
        with self._mutex:
            self._count += 1

    def sneaky_bump(self):
        self._count += 1
"""


def _bad_path(tmp_path) -> str:
    p = tmp_path / "bad_fixture.py"
    p.write_text(BAD_FIXTURE)
    return str(p)


class TestCleanTree:
    def test_effects_clean_on_src(self, capsys):
        main(["effects", SRC, "--baseline", str(BASELINE)])
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_committed_baseline_is_clean(self):
        payload = json.loads(BASELINE.read_text())
        assert payload["findings"] == []
        assert payload["rpreff_suppressions"] == 0

    def test_list_rules(self, capsys):
        main(["effects", "--list-rules"])
        out = capsys.readouterr().out
        for rid in ("RPREFF001", "RPREFF002", "RPREFF003", "RPREFF004"):
            assert rid in out

    def test_missing_path_is_an_error(self):
        with pytest.raises(SystemExit, match="no such path"):
            main(["effects", "definitely/not/a/path"])


class TestFindingsExit:
    def test_findings_exit_nonzero(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["effects", _bad_path(tmp_path),
                  "--baseline", str(tmp_path / "absent.json")])
        assert "RPREFF003" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["effects", _bad_path(tmp_path), "--format", "json",
                  "--baseline", str(tmp_path / "absent.json")])
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule_id"] == "RPREFF003"


class TestJsonRoundTrip:
    def test_json_out_round_trips(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        bad = _bad_path(tmp_path)
        with pytest.raises(SystemExit):
            main(["effects", bad, "--json-out", str(out_file),
                  "--baseline", str(tmp_path / "absent.json")])
        payload = json.loads(out_file.read_text())
        findings = findings_from_json(payload)
        assert [f.rule_id for f in findings] == ["RPREFF003"]
        # a second run over the same input reproduces the same findings
        with pytest.raises(SystemExit):
            main(["effects", bad, "--json-out", str(out_file),
                  "--baseline", str(tmp_path / "absent.json")])
        assert findings_from_json(json.loads(out_file.read_text())) == findings


class TestSarif:
    def test_sarif_validates_against_2_1_0_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        sarif_file = tmp_path / "report.sarif"
        with pytest.raises(SystemExit):
            main(["effects", _bad_path(tmp_path), "--sarif", str(sarif_file),
                  "--baseline", str(tmp_path / "absent.json")])
        doc = json.loads(sarif_file.read_text())
        schema = json.loads(
            (Path(__file__).parent / "sarif_min_schema.json").read_text()
        )
        jsonschema.validate(doc, schema)
        assert doc["version"] == "2.1.0"
        results = doc["runs"][0]["results"]
        assert results[0]["ruleId"] == "RPREFF003"
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1

    def test_clean_tree_sarif_has_no_results(self, tmp_path, capsys):
        sarif_file = tmp_path / "clean.sarif"
        main(["effects", SRC, "--sarif", str(sarif_file),
              "--baseline", str(BASELINE)])
        doc = json.loads(sarif_file.read_text())
        assert doc["runs"][0]["results"] == []
        rule_ids = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        assert "RPREFF001" in rule_ids


class TestBaselineRatchet:
    def test_update_then_pass(self, tmp_path, capsys):
        bad = _bad_path(tmp_path)
        baseline = tmp_path / "baseline.json"
        main(["effects", bad, "--baseline", str(baseline),
              "--update-baseline"])
        assert baseline.exists()
        # with the finding baselined, the same run passes
        main(["effects", bad, "--baseline", str(baseline)])

    def test_new_finding_fails_against_baseline(self, tmp_path, capsys):
        bad = _bad_path(tmp_path)
        baseline = tmp_path / "baseline.json"
        main(["effects", bad, "--baseline", str(baseline),
              "--update-baseline"])
        worse = tmp_path / "bad_fixture.py"
        worse.write_text(BAD_FIXTURE + (
            "\n    def another_sneak(self):\n        self._count += 1\n"
        ))
        with pytest.raises(SystemExit):
            main(["effects", str(worse), "--baseline", str(baseline)])
        assert "not in baseline" in capsys.readouterr().out

    def test_suppression_growth_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad_fixture.py"
        bad.write_text(BAD_FIXTURE)
        baseline = tmp_path / "baseline.json"
        main(["effects", str(bad), "--baseline", str(baseline),
              "--update-baseline"])
        bad.write_text(BAD_FIXTURE.replace(
            "    def sneaky_bump(self):\n        self._count += 1",
            "    def sneaky_bump(self):\n"
            "        self._count += 1  # repro: noqa: RPREFF003",
        ))
        with pytest.raises(SystemExit):
            main(["effects", str(bad), "--baseline", str(baseline)])
        assert "suppression count grew" in capsys.readouterr().out


HOT_FIXTURE = """
def sweep(facets):
    # repro: hot-entry
    total = 0
    for facet in facets:
        total += 1
    return total
"""


def _hot_path(tmp_path) -> str:
    p = tmp_path / "hot_fixture.py"
    p.write_text(HOT_FIXTURE)
    return str(p)


class TestHotpathCli:
    def test_tree_passes_against_committed_baseline(self, capsys):
        main(["hotpath", SRC, "--baseline", str(HOT_BASELINE)])
        out = capsys.readouterr().out
        assert "repro hotpath:" in out

    def test_committed_baseline_ratcheted_down_by_soa_migration(self):
        """The ratchet paid off: the per-facet driver loops that were on
        the books (44 findings pre-SoA) are *gone from the baseline* --
        the object drivers are exempt as differential oracles, the
        performance path is ``hull/soa.py``, and the baseline shrank
        strictly (now only the shared factory + app/baseline worklist
        remains; deleting the object-engine batch kernel took it from
        16 to 7).  The SoA engine itself must stay finding-free."""
        payload = json.loads(HOT_BASELINE.read_text())
        paths = {d["path"] for d in payload["findings"]}
        # Strict decrease from the pre-migration baseline of 44.
        assert len(payload["findings"]) < 44
        assert len(payload["findings"]) <= 7
        # Migrated driver loops no longer appear (exempt as oracles,
        # not suppressed line by line).
        for driver in ("hull/sequential.py", "hull/parallel.py",
                       "hull/point_parallel.py", "hull/online.py"):
            assert not any(p.endswith(driver) for p in paths), driver
        # The vectorized engine carries no findings of its own.
        assert not any(p.endswith("hull/soa.py") for p in paths)
        # The remaining worklist is still named, not hidden.
        assert any(p.endswith("hull/common.py") for p in paths)
        rules = {d["rule_id"] for d in payload["findings"]}
        assert {"RPRHOT001", "RPRHOT003"} <= rules
        assert payload["rprhot_suppressions"] <= 5

    def test_soa_engine_is_finding_free(self, capsys, tmp_path):
        """Run the analyzer over hull/soa.py alone with *no* baseline:
        the hot engine must produce zero findings, not baselined ones."""
        main(["hotpath", str(REPO / "src" / "repro" / "hull" / "soa.py"),
              "--baseline", str(tmp_path / "absent.json")])
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_list_rules(self, capsys):
        main(["hotpath", "--list-rules"])
        out = capsys.readouterr().out
        for rid in ("RPRHOT001", "RPRHOT002", "RPRHOT003",
                    "RPRHOT004", "RPRHOT005", "RPRHOT006"):
            assert rid in out

    def test_findings_exit_nonzero_without_baseline(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["hotpath", _hot_path(tmp_path),
                  "--baseline", str(tmp_path / "absent.json")])
        assert "RPRHOT001" in capsys.readouterr().out

    def test_update_then_pass_then_regress(self, tmp_path, capsys):
        hot = _hot_path(tmp_path)
        baseline = tmp_path / "hot-baseline.json"
        main(["hotpath", hot, "--baseline", str(baseline),
              "--update-baseline"])
        main(["hotpath", hot, "--baseline", str(baseline)])
        worse = tmp_path / "hot_fixture.py"
        worse.write_text(HOT_FIXTURE + (
            "\ndef sweep2(planes):\n"
            "    # repro: hot-entry\n"
            "    for plane in planes:\n"
            "        pass\n"
        ))
        with pytest.raises(SystemExit):
            main(["hotpath", str(worse), "--baseline", str(baseline)])
        assert "not in baseline" in capsys.readouterr().out

    def test_sarif_validates_against_2_1_0_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        sarif_file = tmp_path / "hot.sarif"
        with pytest.raises(SystemExit):
            main(["hotpath", _hot_path(tmp_path), "--sarif", str(sarif_file),
                  "--baseline", str(tmp_path / "absent.json")])
        doc = json.loads(sarif_file.read_text())
        schema = json.loads(
            (Path(__file__).parent / "sarif_min_schema.json").read_text()
        )
        jsonschema.validate(doc, schema)
        assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-hotpath"
        assert doc["runs"][0]["results"][0]["ruleId"] == "RPRHOT001"

    def test_json_format_carries_provenance(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["hotpath", _hot_path(tmp_path), "--format", "json",
                  "--baseline", str(tmp_path / "absent.json")])
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule_id"] == "RPRHOT001"
        assert payload["entries"]  # the hot-entry fixture is listed
        assert payload["hot_functions"] >= 1


class TestLintSarif:
    def test_lint_sarif_shares_the_emitter(self, tmp_path):
        """``repro lint --sarif`` goes through the same
        ``findings_to_sarif`` as effects/hotpath: same schema subset,
        its own tool name and rule table."""
        jsonschema = pytest.importorskip("jsonschema")
        sarif_file = tmp_path / "lint.sarif"
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        main(["lint", str(clean), "--sarif", str(sarif_file)])
        doc = json.loads(sarif_file.read_text())
        schema = json.loads(
            (Path(__file__).parent / "sarif_min_schema.json").read_text()
        )
        jsonschema.validate(doc, schema)
        driver = doc["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert any(r["id"].startswith("RPR") for r in driver["rules"])
        assert doc["runs"][0]["results"] == []

    def test_lint_violations_land_in_sarif(self, tmp_path):
        sarif_file = tmp_path / "lint.sarif"
        bad = tmp_path / "bad.py"
        bad.write_text("import threading\nthreading.Thread(target=print)\n")
        try:
            main(["lint", str(bad), "--sarif", str(sarif_file)])
        except SystemExit:
            pass
        doc = json.loads(sarif_file.read_text())
        results = doc["runs"][0]["results"]
        if results:  # rule set may exempt paths; emitter shape still holds
            loc = results[0]["locations"][0]["physicalLocation"]
            assert loc["region"]["startLine"] >= 1


FP_FIXTURE = """
def decide(margins):
    # repro: fp-bound: in margins ~ M err 3*M
    return margins > 0.0
"""


def _fp_path(tmp_path) -> str:
    p = tmp_path / "fp_fixture.py"
    p.write_text(FP_FIXTURE)
    return str(p)


FP_BASELINE = REPO / "fpcheck-baseline.json"


class TestFpcheckCli:
    def test_tree_passes_against_committed_baseline(self, capsys):
        main(["fpcheck", SRC, "--baseline", str(FP_BASELINE)])
        out = capsys.readouterr().out
        assert "repro fpcheck:" in out
        assert "0 finding(s)" in out
        assert "0 claim failure(s)" in out

    def test_committed_baseline_is_clean(self):
        payload = json.loads(FP_BASELINE.read_text())
        assert payload["findings"] == []
        assert payload["rprfp_suppressions"] == 0

    def test_list_rules(self, capsys):
        main(["fpcheck", "--list-rules"])
        out = capsys.readouterr().out
        for rid in ("RPRFP001", "RPRFP002", "RPRFP003",
                    "RPRFP004", "RPRFP999"):
            assert rid in out

    def test_findings_exit_nonzero_without_baseline(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["fpcheck", _fp_path(tmp_path),
                  "--baseline", str(tmp_path / "absent.json")])
        assert "RPRFP002" in capsys.readouterr().out

    def test_update_then_pass_then_regress(self, tmp_path, capsys):
        fp = _fp_path(tmp_path)
        baseline = tmp_path / "fp-baseline.json"
        main(["fpcheck", fp, "--baseline", str(baseline),
              "--update-baseline"])
        main(["fpcheck", fp, "--baseline", str(baseline)])
        worse = tmp_path / "fp_fixture.py"
        worse.write_text(FP_FIXTURE + (
            "\ndef decide2(other):\n"
            "    # repro: fp-bound: in other ~ M err 3*M\n"
            "    return other > 0.0\n"
        ))
        with pytest.raises(SystemExit):
            main(["fpcheck", str(worse), "--baseline", str(baseline)])
        assert "not in baseline" in capsys.readouterr().out

    def test_ratchet_strict_decrease_helper(self, tmp_path):
        """The shared strict-decrease helper that all three analyzers
        ratchet with: growing a (rule, path) budget or the suppression
        count is a problem; shrinking or holding steady is not."""
        from repro.analyze import assert_strict_decrease

        old = {"version": 1,
               "findings": [{"rule_id": "RPRFP002", "path": "a.py",
                             "line": 3, "col": 1, "message": "m"}],
               "rprfp_suppressions": 1}
        same = json.loads(json.dumps(old))
        assert assert_strict_decrease(old, same, "rprfp_suppressions") == []
        shrunk = {"version": 1, "findings": [], "rprfp_suppressions": 0}
        assert assert_strict_decrease(old, shrunk, "rprfp_suppressions") == []
        grown = {"version": 1,
                 "findings": old["findings"] * 2,
                 "rprfp_suppressions": 1}
        assert assert_strict_decrease(old, grown, "rprfp_suppressions")
        more_noqa = {"version": 1, "findings": old["findings"],
                     "rprfp_suppressions": 2}
        assert assert_strict_decrease(old, more_noqa, "rprfp_suppressions")

    def test_sarif_emitted_via_shared_emitter(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        sarif_file = tmp_path / "fp.sarif"
        with pytest.raises(SystemExit):
            main(["fpcheck", _fp_path(tmp_path), "--sarif", str(sarif_file),
                  "--baseline", str(tmp_path / "absent.json")])
        doc = json.loads(sarif_file.read_text())
        schema = json.loads(
            (Path(__file__).parent / "sarif_min_schema.json").read_text()
        )
        jsonschema.validate(doc, schema)
        assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-fpcheck"
        assert doc["runs"][0]["results"][0]["ruleId"] == "RPRFP002"

    def test_json_format_carries_claims(self, tmp_path, capsys):
        main(["fpcheck", SRC, "--format", "json",
              "--baseline", str(FP_BASELINE)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["claims"] and all(c["ok"] for c in payload["claims"])
        assert payload["baseline_problems"] == []
