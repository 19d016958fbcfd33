"""The hot-path discipline analyzer behind ``repro hotpath``.

``BENCH_kernels.json`` records the problem this pass exists to guard:
the batched predicate kernels win 20-36x on raw sweeps, yet end-to-end
hulls at n=2000 run at 0.76-0.80x -- the per-facet Python driver in
``hull/`` swallows the vectorized win.  The coming SoA conflict-list
refactor (ROADMAP Open item 1) removes those driver loops; this
analyzer *finds* them today (the committed ``hotpath-baseline.json``
is exactly that worklist) and, through the baseline ratchet, forbids
their reintroduction tomorrow.

Mechanics: functions on the batch-kernel path ("hot" functions) are
discovered by a BFS over the bare-name call graph from the kernel
entry points (anything with a ``kernel=`` parameter or that passes
``kernel="batch"``, and every shape-annotated or ``# repro: hot-entry``
function), with RPREFF002-style provenance chains.  Inside each hot
function the rules run over the loop-depth-stamped CFG
(:mod:`repro.analyze.cfg`) and the NumPy shape abstraction
(:mod:`repro.analyze.shapes`):

``RPRHOT001`` per-element loop
    A Python ``for`` over facet/point/conflict data (inferred array,
    or matching the hot-data lexicon) on the batch-reachable path.
``RPRHOT002`` scalar predicate in a loop
    ``orient`` / ``side`` / ``visible_mask`` / per-facet ``Hyperplane``
    construction at loop depth >= 1: exactly the amortization failure
    parlaylib's staged predicates avoid.
``RPRHOT003`` allocation churn
    ``np.concatenate``/``np.asarray``/... or hot-list ``.append`` at
    loop depth >= 1 (quadratic reallocation).
``RPRHOT004`` dtype degradation
    An ``object``-dtype array (e.g. a float64 -> Fraction crossing)
    flowing through a hot function.
``RPRHOT005`` shape inconsistency
    einsum/matmul/broadcast operands that *definitely* cannot agree
    under the inferred symbolic dims.
``RPRHOT006`` unaccounted batched sweep
    A ``visible_flat``/``orient_batch`` call in a function with no
    work-span accounting marker, which would silently falsify E2/E13.

The scalar exact-arithmetic ladder (``geometry/predicates.py``,
``perturb.py``, ``linalg.py``, ``hyperplane.py``) is per-element *by
design* -- it is the correctness fallback the batch kernels filter
down to -- so those files are exempt from findings (they still
propagate hotness).  Runtime primitives share the effects allowlist.

Honest holes, mirrored in ARCHITECTURE.md: hotness uses bare-name
resolution (over-approximate), the shape pass is a single forward
sweep (flow-insensitive at joins), and the hot-data lexicon is a
heuristic.  The dynamic differential in
``tests/analyze/test_hotpath_soundness.py`` bounds the shape
abstraction against recorded kernel traffic.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Sequence

from ..lint.core import SuppressionComment, iter_suppressions, suppressed_lines
from . import shapes as sh
from .callgraph import FunctionInfo, Program, build_program
from .cfg import build_cfg
from .checks import Finding
from .effects import EFFECT_ALLOWLIST

__all__ = [
    "HOT_RULES",
    "HOT_EXEMPT",
    "HotpathResult",
    "analyze_hotpaths",
    "render_hot_text",
    "check_recorded_events",
]

#: rule id -> (short name, summary); SARIF table + ``--list-rules``.
HOT_RULES: dict[str, tuple[str, str]] = {
    "RPRHOT001": (
        "per-element-loop",
        "a per-element Python for loop over facet/point/conflict data "
        "on the batch-kernel path",
    ),
    "RPRHOT002": (
        "scalar-predicate-in-loop",
        "a scalar geometric predicate or per-facet Hyperplane "
        "construction inside a loop on the batch path",
    ),
    "RPRHOT003": (
        "alloc-in-hot-loop",
        "array allocation or list growth inside a hot loop "
        "(quadratic churn)",
    ),
    "RPRHOT004": (
        "dtype-degradation",
        "an object-dtype array (float64 -> Fraction crossing) leaking "
        "into a kernel sweep",
    ),
    "RPRHOT005": (
        "shape-mismatch",
        "einsum/matmul/broadcast operand shapes inconsistent under "
        "the inferred symbolic dims",
    ),
    "RPRHOT006": (
        "unaccounted-sweep",
        "a batched sweep with no matching work-span accounting "
        "(add_batched_sweep/count_sweep)",
    ),
    "RPRHOT999": (
        "syntax-error",
        "a file could not be parsed",
    ),
}

#: files whose *findings* are waived: the scalar exact ladder is
#: per-element by design (it is what the batch kernels fall back to),
#: and runtime primitives share the effects allowlist.  Hotness still
#: propagates through them.
#:
#: The four object-graph hull drivers are exempt as *oracles*: since
#: the conflict-list SoA engine (:mod:`repro.hull.soa`) became the
#: performance path, their per-facet/per-ridge loops are the executable
#: specification the differential suites check the SoA engine against
#: -- batching them away would destroy the very scalar-equivalence
#: the tests pin.  ``hull/soa.py`` itself is NOT exempt: the vectorized
#: engine must stay finding-free on its own merits.
HOT_EXEMPT: tuple[str, ...] = EFFECT_ALLOWLIST + (
    "geometry/predicates.py",
    "geometry/perturb.py",
    "geometry/linalg.py",
    "geometry/hyperplane.py",
    "hull/sequential.py",
    "hull/parallel.py",
    "hull/point_parallel.py",
    "hull/online.py",
)

#: the hot-data lexicon: names that, appearing in a loop iterable,
#: mark it as per-element iteration over geometry/conflict data.
HOT_NAME_RE = re.compile(
    r"\b(frontier|task|facet|conflict|cand|plane|spec|point|ridge"
    r"|simplex|simplices|queries|block|pend)\w*"
)

#: bare names whose call is a scalar predicate / per-facet plane setup
SCALAR_PREDICATES = frozenset({
    "orient", "orient_exact", "orient_exact_combo", "orient_sos",
    "side", "is_visible", "visible_mask", "margins", "through",
    "_plane_for", "_side_exact", "Hyperplane", "in_circle",
})

#: np.* calls that allocate a fresh array
ALLOC_NP = frozenset({
    "concatenate", "append", "array", "asarray", "asanyarray", "zeros",
    "empty", "ones", "full", "stack", "vstack", "hstack", "arange",
    "ascontiguousarray", "copy",
})

#: list-growth methods (flagged only on hot-lexicon receivers)
LIST_GROW = frozenset({"append", "extend", "insert"})

#: batched sweep entry points that must be work-span accounted
BATCH_SWEEPS = frozenset({"visible_flat", "orient_batch"})

#: presence of any of these names/attrs in a function counts as
#: accounting for its sweeps
ACCOUNTING_MARKERS = frozenset({
    "add_batched_sweep", "add_task", "count_sweep", "visibility_tests",
})


def _bare_callee(call: ast.Call) -> str:
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return ""


def _unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<expr>"


@dataclass
class _FnScan:
    """Everything one syntactic pass collects from a hot function."""

    #: (call node, loop depth incl. comprehension nesting)
    calls: list[tuple[ast.Call, int]] = field(default_factory=list)
    #: top-level value expressions of statements (for the dtype rule)
    values: list[ast.expr] = field(default_factory=list)
    #: every Name id and Attribute attr in the body (marker lookup)
    names: set[str] = field(default_factory=set)


def _scan_fn(fnnode) -> _FnScan:
    """One recursive pass: calls with their loop depth (``for``/
    ``while`` bodies and comprehension generators each add one),
    statement value expressions, and the name universe.  Nested defs
    and lambdas are skipped -- they are hot functions of their own."""
    out = _FnScan()

    def visit(n: ast.AST, depth: int) -> None:
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.ClassDef, ast.Lambda)):
            return
        if isinstance(n, ast.Name):
            out.names.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.names.add(n.attr)
        if isinstance(n, (ast.For, ast.AsyncFor)):
            visit(n.iter, depth)
            visit(n.target, depth)
            for s in n.body:
                visit(s, depth + 1)
            for s in n.orelse:
                visit(s, depth)
            return
        if isinstance(n, ast.While):
            visit(n.test, depth + 1)
            for s in n.body:
                visit(s, depth + 1)
            for s in n.orelse:
                visit(s, depth)
            return
        if isinstance(n, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                          ast.DictComp)):
            inner = depth
            for gen in n.generators:
                visit(gen.iter, inner)
                visit(gen.target, inner + 1)
                inner += 1
                for cond in gen.ifs:
                    visit(cond, inner)
            if isinstance(n, ast.DictComp):
                visit(n.key, inner)
                visit(n.value, inner)
            else:
                visit(n.elt, inner)
            return
        if isinstance(n, (ast.Assign, ast.AnnAssign, ast.Return, ast.Expr)):
            if getattr(n, "value", None) is not None:
                out.values.append(n.value)
        if isinstance(n, ast.Call):
            out.calls.append((n, depth))
        for child in ast.iter_child_nodes(n):
            visit(child, depth)

    body = getattr(fnnode, "body", None)
    if isinstance(body, list):
        for stmt in body:
            visit(stmt, 0)
    elif body is not None:  # a lambda body is a single expression
        visit(body, 0)
    return out


# -- hot-region discovery ------------------------------------------------


def _entry_reason(info: FunctionInfo, annotated: bool) -> str | None:
    if annotated:
        return "shape-annotated kernel boundary"
    if "kernel" in info.param_names:
        return "has a kernel= parameter"
    node = info.node
    if isinstance(node, ast.Lambda):
        return None
    for n in ast.walk(node):
        if isinstance(n, ast.Call):
            for kw in n.keywords:
                if kw.arg == "kernel" and isinstance(kw.value, ast.Constant) \
                        and kw.value.value == "batch":
                    return "calls with kernel='batch'"
    return None


def _call_targets(program: Program, call: ast.Call,
                  enclosing: FunctionInfo) -> list[FunctionInfo]:
    """Bare-name resolution of one call: module functions, methods of
    any class with that method name, nested defs, and classes (their
    constructor).  Over-approximate on purpose -- extra hotness only
    widens the guarded region."""
    name = _bare_callee(call)
    if not name:
        return []
    out = list(program.functions_named(name))
    for cls in program.classes_named(name):
        init = cls.methods.get("__init__")
        if init is not None:
            out.append(init)
    return out


def _hot_region(
    program: Program,
    entries: dict[str, str],
) -> dict[str, str]:
    """BFS from the entries over bare-name call edges; returns
    qualname -> provenance chain ("entry -> helper -> leaf")."""
    by_qual = {f.qualname: f for f in program.all_functions()}
    parents: dict[str, str] = {q: "" for q in entries}
    queue = list(entries)
    while queue:
        qual = queue.pop(0)
        info = by_qual.get(qual)
        if info is None:
            continue
        succs: list[str] = []
        node = info.node
        scan_root = node if not isinstance(node, ast.Lambda) else node.body
        for n in ast.walk(scan_root):
            if isinstance(n, ast.Call):
                succs.extend(
                    t.qualname for t in _call_targets(program, n, info)
                )
        # an enclosing hot function heats its nested defs (they run on
        # its data even when only ever passed to an executor)
        prefix = qual + ".<locals>."
        succs.extend(
            q for q in program.nested_functions
            if q.startswith(prefix) and q.count(".<locals>.") ==
            qual.count(".<locals>.") + 1
        )
        for s in succs:
            if s not in parents and s in by_qual:
                parents[s] = qual
                queue.append(s)
    chains: dict[str, str] = {}
    for q in parents:
        hops = []
        cur = q
        while cur:
            hops.append(cur.rsplit(".", 1)[-1])
            cur = parents.get(cur, "")
        hops.reverse()
        chains[q] = " -> ".join(hops)
    return chains


# -- the rules -----------------------------------------------------------


def _check_fn(
    info: FunctionInfo,
    chain: str,
    env: sh.ShapeEnv,
    ann: sh.FnAnnotation | None,
) -> list[Finding]:
    node = info.node
    if isinstance(node, ast.Lambda):
        return []
    out: list[Finding] = []
    scan = _scan_fn(node)
    short = info.qualname.rsplit(".", 1)[-1]

    # seed and run the shape pass (collects RPRHOT005 material)
    if ann is not None:
        for name, val in ann.shapes.items():
            env.set(name, val)
    sh.infer_body(node, env)

    # RPRHOT001 -- per-element for loops, via the loop-stamped CFG
    cfg = build_cfg(node)
    for cnode in cfg.nodes:
        if cnode.role != "for-header" or not cnode.payload:
            continue
        iter_expr = cnode.payload[0]
        v = sh.infer_expr(iter_expr, env)
        text = _unparse(iter_expr)
        is_arr = v.is_array
        if not is_arr and not HOT_NAME_RE.search(text):
            continue
        what = (
            f"inferred array {v.format()}" if is_arr
            else "hot-lexicon data"
        )
        depth_note = (
            f" (nested at loop depth {cnode.loop_depth})"
            if cnode.loop_depth else ""
        )
        out.append(Finding(
            rule_id="RPRHOT001",
            path=info.path, line=cnode.line, col=cnode.col + 1,
            func=info.qualname,
            message=(
                f"per-element Python for loop over `{text}` ({what}) in "
                f"hot function `{short}`{depth_note}; batch the sweep "
                f"instead; reached via {chain}"
            ),
        ))

    # RPRHOT002/003/006 -- call-site rules
    has_accounting = bool(scan.names & ACCOUNTING_MARKERS)
    for call, depth in scan.calls:
        name = _bare_callee(call)
        if not name:
            continue
        if depth >= 1 and name in SCALAR_PREDICATES:
            out.append(Finding(
                rule_id="RPRHOT002",
                path=info.path, line=call.lineno, col=call.col_offset + 1,
                func=info.qualname,
                message=(
                    f"scalar predicate `{name}` called inside a loop in "
                    f"hot function `{short}`; amortize it across the "
                    f"whole conflict sequence; reached via {chain}"
                ),
            ))
        if depth >= 1:
            f = call.func
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                    and f.value.id in ("np", "numpy") and f.attr in ALLOC_NP:
                out.append(Finding(
                    rule_id="RPRHOT003",
                    path=info.path, line=call.lineno,
                    col=call.col_offset + 1,
                    func=info.qualname,
                    message=(
                        f"array allocation `np.{f.attr}` inside a hot "
                        f"loop in `{short}` (quadratic churn); hoist or "
                        f"preallocate; reached via {chain}"
                    ),
                ))
            elif isinstance(f, ast.Attribute) and f.attr in LIST_GROW \
                    and HOT_NAME_RE.search(_unparse(f.value)):
                out.append(Finding(
                    rule_id="RPRHOT003",
                    path=info.path, line=call.lineno,
                    col=call.col_offset + 1,
                    func=info.qualname,
                    message=(
                        f"list growth `{_unparse(f.value)}.{f.attr}` "
                        f"inside a hot loop in `{short}` (quadratic "
                        f"churn); reached via {chain}"
                    ),
                ))
        if name in BATCH_SWEEPS and not has_accounting:
            out.append(Finding(
                rule_id="RPRHOT006",
                path=info.path, line=call.lineno, col=call.col_offset + 1,
                func=info.qualname,
                message=(
                    f"batched sweep `{name}` in `{short}` has no "
                    "work-span accounting marker (add_batched_sweep / "
                    "add_task / count_sweep / visibility_tests); E2/E13 "
                    "cost accounting would silently drift"
                ),
            ))

    # RPRHOT004 -- object-dtype arrays out of statement values
    seen_lines: set[int] = set()
    for value in scan.values:
        if isinstance(value, ast.Name):
            continue  # flag the creation point, not every later mention
        v = sh.infer_expr(value, env)
        if v.is_array and v.dtype == "object" and value.lineno not in seen_lines:
            seen_lines.add(value.lineno)
            out.append(Finding(
                rule_id="RPRHOT004",
                path=info.path, line=value.lineno, col=value.col_offset + 1,
                func=info.qualname,
                message=(
                    f"object-dtype array `{_unparse(value)[:60]}` in hot "
                    f"function `{short}` (float64 -> Fraction crossing "
                    "kills vectorization); keep exact values out of the "
                    "sweep arrays"
                ),
            ))

    # RPRHOT005 -- definite shape inconsistencies from the interpreter
    # (deduped: the dtype rule above re-infers statement values through
    # the same env, so a mismatch can be recorded twice)
    for line, col, msg in dict.fromkeys(env.mismatches):
        out.append(Finding(
            rule_id="RPRHOT005",
            path=info.path, line=line, col=col + 1,
            func=info.qualname,
            message=f"shape inconsistency in hot function `{short}`: {msg}",
        ))
    return out


# -- pipeline ------------------------------------------------------------


@dataclass
class HotpathResult:
    program: Program
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    #: hot qualname -> provenance chain from its entry
    hot: dict[str, str] = field(default_factory=dict)
    #: entry qualname -> why it is an entry
    entries: dict[str, str] = field(default_factory=dict)
    #: qualname -> parsed boundary annotation
    annotations: dict[str, sh.FnAnnotation] = field(default_factory=dict)

    def suppressions(self) -> list[SuppressionComment]:
        """Noqa comments that (could) cover RPRHOT rules: blanket ones
        plus explicit RPRHOT codes.  The ratchet pins their count."""
        out = []
        for c in iter_suppressions(self.program.files):
            if c.codes is None or any(x.startswith("RPRHOT") for x in c.codes):
                out.append(c)
        return out


def _exempt(path: str) -> bool:
    return any(path.endswith(suffix) for suffix in HOT_EXEMPT)


def analyze_hotpaths(
    paths: Sequence[str],
    sources: dict[str, str] | None = None,
) -> HotpathResult:
    """Parse, find the hot region, run RPRHOT001-006, apply noqa."""
    program = build_program(paths, sources=sources)

    # parse boundary annotations, keyed by (path, def line) -> qualname
    ann_by_key: dict[tuple[str, int], sh.FnAnnotation] = {}
    for f in program.files:
        for lineno, ann in sh.parse_annotations(f.source, f.tree).items():
            ann_by_key[(f.posix, lineno)] = ann
    annotations: dict[str, sh.FnAnnotation] = {}
    bare_ann: dict[str, sh.FnAnnotation] = {}
    for info in program.all_functions():
        if isinstance(info.node, ast.Lambda):
            continue
        ann = ann_by_key.get((info.path, info.node.lineno))
        if ann is not None:
            ann.qualname = info.qualname
            annotations[info.qualname] = ann
            bare_ann[info.qualname.rsplit(".", 1)[-1]] = ann

    entries: dict[str, str] = {}
    for info in program.all_functions():
        reason = _entry_reason(info, info.qualname in annotations)
        if reason is not None:
            entries[info.qualname] = reason
    hot = _hot_region(program, entries)

    findings: list[Finding] = [
        Finding(
            rule_id="RPRHOT999", path=v.path, line=v.line, col=v.col,
            message=v.message,
        )
        for v in program.errors
    ]
    by_qual = {f.qualname: f for f in program.all_functions()}
    for qual in sorted(hot):
        info = by_qual.get(qual)
        if info is None or _exempt(info.path):
            continue
        env = sh.ShapeEnv(bare_ann)
        findings.extend(
            _check_fn(info, hot[qual], env, annotations.get(qual))
        )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))

    source_by_path = {f.posix: f.source for f in program.files}
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for f in findings:
        lines = suppressed_lines(source_by_path.get(f.path, ""))
        codes = lines.get(f.line, frozenset())
        if codes is None or f.rule_id in codes:
            suppressed.append(f)
        else:
            kept.append(f)
    return HotpathResult(
        program=program, findings=kept, suppressed=suppressed,
        hot=hot, entries=entries, annotations=annotations,
    )


def render_hot_text(result: HotpathResult, verbose: bool = False) -> str:
    lines = [f.format() for f in result.findings]
    summary = (
        f"repro hotpath: {len(result.findings)} finding(s), "
        f"{len(result.suppressed)} suppressed; "
        f"{len(result.entries)} entry point(s), "
        f"{len(result.hot)} hot function(s), "
        f"{len(result.annotations)} annotated boundary(ies)"
    )
    if verbose:
        lines.append("entry points:")
        lines.extend(
            f"  {q}: {why}" for q, why in sorted(result.entries.items())
        )
        lines.append("hot region:")
        lines.extend(
            f"  {chain}" for _, chain in sorted(result.hot.items())
        )
    lines.append(summary)
    return "\n".join(lines)


def check_recorded_events(
    result: HotpathResult,
    recorder: "sh.ShapeRecorder",
) -> list[str]:
    """The dynamic soundness differential: every recorded ``(shape,
    dtype)`` fact at an annotated boundary must be admitted by the
    static abstraction, with symbol bindings consistent *within* each
    event.  Returns violations (empty == sound)."""
    problems: list[str] = []
    for qual, facts in recorder.events:
        ann = result.annotations.get(qual)
        if ann is None:
            continue  # unannotated boundary: abstraction is top
        for p in sh.check_event(ann, facts):
            problems.append(f"{qual}: {p}")
    return problems
