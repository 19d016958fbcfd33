"""The ``repro lint`` rule suite.

Each rule gets at least one fixture snippet planting exactly the
violation it guards against, asserted by rule id *and* location, plus a
clean twin proving the rule doesn't fire on the sanctioned idiom.
Fixtures are written to tmp_path so the checker runs end-to-end
(collection, parsing, suppression) rather than on pre-built ASTs.
"""

import textwrap
from pathlib import Path

import pytest

from repro.lint import ALL_RULES, lint_paths, run_lint
from repro.lint.core import collect_files, parse_file

RULE_IDS = [r.id for r in ALL_RULES]


def lint_snippet(tmp_path: Path, source: str, name: str = "snippet.py", **kwargs):
    """Write ``source`` under tmp_path and lint just that file."""
    f = tmp_path / name
    f.parent.mkdir(parents=True, exist_ok=True)
    f.write_text(textwrap.dedent(source))
    return run_lint([f], ALL_RULES, **kwargs)


class TestRegistry:
    def test_rule_ids_unique_and_ordered(self):
        assert RULE_IDS == sorted(set(RULE_IDS))
        assert RULE_IDS == ["RPR001", "RPR002", "RPR003", "RPR004", "RPR005"]

    def test_every_rule_has_summary(self):
        assert all(r.summary for r in ALL_RULES)


class TestRPR001AtomicInternals:
    def test_plants_and_catches_internal_access(self, tmp_path):
        vs = lint_snippet(tmp_path, """\
            def steal(cell):
                if cell._lock.acquire(False):
                    cell._value = 42
        """)
        ids = [(v.rule_id, v.line) for v in vs]
        assert ("RPR001", 2) in ids  # ._lock
        assert ("RPR001", 3) in ids  # ._value

    def test_catches_flag_internal(self, tmp_path):
        vs = lint_snippet(tmp_path, "def f(flag):\n    return flag._set\n")
        assert [(v.rule_id, v.line) for v in vs] == [("RPR001", 2)]

    def test_atomics_module_is_exempt(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "class AtomicCell:\n    def load(self):\n        return self._value\n",
            name="repro/runtime/atomics.py",
        )
        assert vs == []

    def test_interface_calls_are_clean(self, tmp_path):
        vs = lint_snippet(tmp_path, """\
            def use(cell, flag):
                cell.store(1)
                return cell.load(), flag.test_and_set()
        """)
        assert vs == []


class TestRPR002RawThreading:
    def test_plants_and_catches_import(self, tmp_path):
        vs = lint_snippet(tmp_path, "import threading\nlock = threading.Lock()\n",
                          name="repro/hull/helper.py")
        assert [(v.rule_id, v.line) for v in vs] == [("RPR002", 1)]

    def test_catches_from_import(self, tmp_path):
        vs = lint_snippet(tmp_path, "from threading import Thread\n")
        assert [v.rule_id for v in vs] == ["RPR002"]

    def test_allowlisted_runtime_modules_are_exempt(self, tmp_path):
        from repro.lint.rules_atomics import THREADING_ALLOWLIST

        assert "runtime/chaos.py" in THREADING_ALLOWLIST
        for mod in THREADING_ALLOWLIST:
            vs = lint_snippet(tmp_path, "import threading\n",
                              name=f"repro/{mod}")
            assert vs == [], mod

    def test_unlisted_runtime_module_is_flagged(self, tmp_path):
        # The allowlist is exhaustive: a *new* runtime module importing
        # threading must either go through the sanctioned primitives or
        # be added to THREADING_ALLOWLIST deliberately.
        vs = lint_snippet(tmp_path, "import threading\n",
                          name="repro/runtime/newmodule.py")
        assert [v.rule_id for v in vs] == ["RPR002"]

    def test_allowlist_matches_reality(self):
        # Every module that actually imports threading is allowlisted.
        from repro.lint.rules_atomics import THREADING_ALLOWLIST

        src = Path(__file__).resolve().parents[2] / "src"
        offenders = []
        for f in collect_files([src]):
            lf = parse_file(f)
            if "import threading" in lf.source and not any(
                lf.posix.endswith(m) for m in THREADING_ALLOWLIST
            ):
                offenders.append(lf.posix)
        assert offenders == []

    def test_catches_raw_multiprocessing_import(self, tmp_path):
        vs = lint_snippet(tmp_path, "import multiprocessing\n",
                          name="repro/hull/helper.py")
        assert [(v.rule_id, v.line) for v in vs] == [("RPR002", 1)]
        assert "procexec" in vs[0].message

    def test_catches_multiprocessing_submodule_from_import(self, tmp_path):
        vs = lint_snippet(
            tmp_path, "from multiprocessing import shared_memory\n")
        assert [v.rule_id for v in vs] == ["RPR002"]

    def test_procexec_may_import_multiprocessing(self, tmp_path):
        from repro.lint.rules_atomics import MULTIPROCESSING_ALLOWLIST

        assert MULTIPROCESSING_ALLOWLIST == ("runtime/procexec.py",)
        vs = lint_snippet(
            tmp_path,
            "from multiprocessing import get_context, shared_memory\n",
            name="repro/runtime/procexec.py",
        )
        assert vs == []

    def test_threading_allowlist_does_not_cover_multiprocessing(self, tmp_path):
        # chaos.py may import threading but NOT multiprocessing: the two
        # allowlists are independent, so a threading-allowlisted module
        # spawning raw processes is still flagged.
        vs = lint_snippet(tmp_path, "import multiprocessing\n",
                          name="repro/runtime/chaos.py")
        assert [v.rule_id for v in vs] == ["RPR002"]

    def test_multiprocessing_allowlist_matches_reality(self):
        # Exactly the allowlisted module imports multiprocessing; no
        # other src module owns processes or segments raw.
        from repro.lint.rules_atomics import MULTIPROCESSING_ALLOWLIST

        src = Path(__file__).resolve().parents[2] / "src"
        importers = []
        for f in collect_files([src]):
            lf = parse_file(f)
            if ("import multiprocessing" in lf.source
                    or "from multiprocessing" in lf.source):
                importers.append(lf.posix)
        assert sorted(importers) == sorted(
            p for p in importers
            if any(p.endswith(m) for m in MULTIPROCESSING_ALLOWLIST)
        )
        assert len(importers) == len(MULTIPROCESSING_ALLOWLIST)


STEP_GEN_TEMPLATE = """\
class Table:
    def op_steps(self, key):
        i = 0
        while True:
            yield ("cas", i)
            if self._cells[i].compare_and_swap(None, key):
                return True
            {extra}
            i += 1
"""


class TestRPR003YieldDiscipline:
    def test_plants_and_catches_unyielded_access(self, tmp_path):
        # The second access has no yield of its own.
        vs = lint_snippet(tmp_path, STEP_GEN_TEMPLATE.format(
            extra="stored = self._cells[i].load()"))
        assert [(v.rule_id, v.line) for v in vs] == [("RPR003", 8)]
        assert "op_steps" in vs[0].message

    def test_disciplined_generator_is_clean(self, tmp_path):
        vs = lint_snippet(tmp_path, STEP_GEN_TEMPLATE.format(
            extra='yield ("read", i)\n            stored = self._cells[i].load()'))
        assert vs == []

    def test_access_before_any_yield(self, tmp_path):
        vs = lint_snippet(tmp_path, """\
            class Table:
                def op_steps(self, key):
                    self._slots[0].data = key   # write before first yield
                    yield ("done", 0)
        """)
        assert [(v.rule_id, v.line) for v in vs] == [("RPR003", 3)]

    def test_loop_wraparound_detected(self, tmp_path):
        # The yield arms only the first access of the first iteration:
        # on wrap-around the loop body starts unarmed.
        vs = lint_snippet(tmp_path, """\
            class Table:
                def op_steps(self, key):
                    yield ("start", 0)
                    i = 0
                    while True:
                        x = self._cells[i]
                        i += 1
        """)
        assert [(v.rule_id, v.line) for v in vs] == [("RPR003", 6)]

    def test_plain_generators_not_step_generators(self, tmp_path):
        # Yields ints, not ("tag", ...) tuples: the convention doesn't
        # apply, so unyielded accesses are fine.
        vs = lint_snippet(tmp_path, """\
            class Table:
                def numbers(self):
                    for i in range(3):
                        yield i
                        x = self._cells[i]
        """)
        assert vs == []

    def test_multimap_shipped_generators_are_clean(self):
        import repro.runtime.multimap as mm

        vs = run_lint([Path(mm.__file__)], ALL_RULES)
        assert vs == []


class TestRPR004RawPredicate:
    def test_plants_and_catches_det_sign_test(self, tmp_path):
        vs = lint_snippet(tmp_path, """\
            import numpy as np

            def visible(m):
                return np.linalg.det(m) > 0
        """)
        assert [(v.rule_id, v.line) for v in vs] == [("RPR004", 4)]

    def test_catches_det_variable_equality(self, tmp_path):
        vs = lint_snippet(tmp_path, """\
            def degenerate(rows):
                det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
                return det == 0
        """)
        assert [(v.rule_id, v.line) for v in vs] == [("RPR004", 3)]

    def test_geometry_dir_is_exempt(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "import numpy as np\n\ndef s(m):\n    return np.linalg.det(m) > 0\n",
            name="repro/geometry/predicates.py",
        )
        assert vs == []

    def test_predicate_results_are_clean(self, tmp_path):
        # orient() returns an exact integer sign; comparing it is the
        # sanctioned idiom.
        vs = lint_snippet(tmp_path, """\
            from repro.geometry import orient

            def left_turn(simplex, q):
                return orient(simplex, q) > 0
        """)
        assert vs == []


class TestRPR005UnseededRandom:
    def test_plants_and_catches_global_random(self, tmp_path):
        vs = lint_snippet(tmp_path, """\
            import random

            def shuffle(xs):
                random.shuffle(xs)
        """)
        assert [(v.rule_id, v.line) for v in vs] == [("RPR005", 4)]

    def test_catches_unseeded_default_rng(self, tmp_path):
        vs = lint_snippet(tmp_path, """\
            import numpy as np

            rng1 = np.random.default_rng()
            rng2 = np.random.default_rng(None)
            rng3 = np.random.default_rng(seed=None)
        """)
        assert [(v.rule_id, v.line) for v in vs] == [
            ("RPR005", 3), ("RPR005", 4), ("RPR005", 5)]

    def test_catches_legacy_np_random(self, tmp_path):
        vs = lint_snippet(tmp_path,
                          "import numpy as np\nx = np.random.rand(3)\n")
        assert [v.rule_id for v in vs] == ["RPR005"]

    def test_seeded_generators_are_clean(self, tmp_path):
        vs = lint_snippet(tmp_path, """\
            import random
            import numpy as np

            def draw(seed):
                rng = np.random.default_rng(seed)
                r = random.Random(0)
                return rng.integers(10), r.randint(0, 9)
        """)
        assert vs == []


class TestSuppression:
    def test_bare_noqa_suppresses_all(self, tmp_path):
        vs = lint_snippet(
            tmp_path, "import threading  # repro: noqa\n")
        assert vs == []

    def test_coded_noqa_suppresses_only_that_rule(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "import threading  # repro: noqa: RPR002\n"
            "import random\nrandom.random()  # repro: noqa: RPR002\n")
        # RPR002 silenced on line 1; the RPR005 on line 3 survives its
        # mismatched suppression code.
        assert [v.rule_id for v in vs] == ["RPR005"]


class TestRunner:
    def test_collect_skips_pycache(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
        (tmp_path / "real.py").write_text("x = 1\n")
        assert [p.name for p in collect_files([tmp_path])] == ["real.py"]

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(:\n")
        parsed = parse_file(bad)
        assert parsed.rule_id == "RPR999"

    def test_select_and_ignore(self, tmp_path):
        src = "import threading\nimport random\nrandom.random()\n"
        only_threading = lint_snippet(tmp_path, src, select=frozenset({"RPR002"}))
        assert [v.rule_id for v in only_threading] == ["RPR002"]
        no_threading = lint_snippet(tmp_path, src, ignore=frozenset({"RPR002"}))
        assert [v.rule_id for v in no_threading] == ["RPR005"]

    def test_whole_tree_is_clean(self):
        """The acceptance criterion: ``repro lint`` exits 0 on the
        shipped tree (src + tools)."""
        assert lint_paths() == []


class TestNoqaAudit:
    """The in-tree suppression inventory, pinned -- one uniform sweep
    across every analyzer family.

    Every ``# repro: noqa`` in ``src/`` is audited: the two RPR004s are
    exact-predicate sign tests where the linted idiom (float comparison
    against zero) is itself the specification; the RPRHOT set is the
    exact-filter fallback loops in ``kernels.py`` (the scalar ladder
    *is* the fallback, by design) and the lying oracle's per-decision
    hash draws in ``noisy.py``.  The
    effects (RPREFF) and fp-filter (RPRFP) analyzers run suppression-
    free.  A new suppression anywhere must update the pin *and* justify
    itself in review -- this is the textual half of the ratchet whose
    machine halves live in ``analyze-baseline.json`` /
    ``hotpath-baseline.json`` / ``fpcheck-baseline.json``.
    """

    REPO = Path(__file__).resolve().parents[2]

    #: analyzer-family prefix -> pinned per-file suppression counts.
    #: ``RPR`` means the plain lint rules (RPRnnn, excluding the
    #: analyzer families below); blanket no-code noqas count toward
    #: every family and are therefore pinned to zero implicitly.
    FAMILIES = ("RPREFF", "RPRHOT", "RPRFP")
    PINNED = {
        "RPR": {"halfspaces.py": 1, "certify.py": 1},
        "RPREFF": {},
        "RPRHOT": {
            "kernels.py": 3,
            "noisy.py": 2,
        },
        "RPRFP": {},
    }

    def _tree_suppressions(self):
        from repro.lint.core import iter_suppressions, load_files

        files, _ = load_files([self.REPO / "src"])
        return iter_suppressions(files)

    def _covers(self, c, prefix: str) -> bool:
        if c.codes is None:
            return True  # a blanket noqa covers every family
        if prefix == "RPR":
            return any(
                code.startswith("RPR")
                and not any(code.startswith(f) for f in self.FAMILIES)
                for code in c.codes
            )
        return any(code.startswith(prefix) for code in c.codes)

    @pytest.mark.parametrize("prefix", ["RPR", "RPREFF", "RPRHOT", "RPRFP"])
    def test_suppression_inventory_is_pinned(self, prefix):
        from collections import Counter

        got = Counter(
            Path(c.path).name
            for c in self._tree_suppressions()
            if self._covers(c, prefix)
        )
        assert dict(got) == self.PINNED[prefix], prefix

    def test_analyzer_trees_run_suppression_free(self):
        """The two clean analyzers really are clean, not silenced:
        their tree runs carry zero suppressed findings."""
        from repro.analyze import analyze_fpcheck, analyze_paths

        fp = analyze_fpcheck([str(self.REPO / "src" / "repro")])
        assert fp.suppressed == [] and fp.suppressions() == []
        eff = analyze_paths([str(self.REPO / "src" / "repro")])
        assert eff.suppressed == []

    def test_no_unused_suppressions_in_tree(self):
        from repro.lint.core import unused_suppressions

        assert unused_suppressions([self.REPO / "src"], ALL_RULES) == []

    def test_docstring_mentions_are_not_suppressions(self):
        from repro.lint.core import suppressed_lines

        src = (
            '"""Silence a finding with ``# repro: noqa: RPR004``."""\n'
            "x = 1\n"
            "y = 2  # repro: noqa: RPR004\n"
        )
        assert suppressed_lines(src) == {3: frozenset({"RPR004"})}

    def test_stale_suppression_is_detected(self, tmp_path):
        from repro.lint.core import unused_suppressions

        f = tmp_path / "stale.py"
        f.write_text("x = 1  # repro: noqa: RPR004\n")
        (stale,) = unused_suppressions([tmp_path], ALL_RULES)
        assert stale.line == 1 and stale.covers("RPR004")
