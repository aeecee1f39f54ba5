"""RL013: the dual-core state machines must not drift apart.

PR 6 left the engine with two implementations of the same event loop —
the object core (``repro.core.engine.Simulator``) and the columnar core
(``repro.core.columnar.ColumnarCore``).  This module extracts a
*parity model* from each core's :class:`FileSummary` facts and diffs
them: the per-event-kind state-field write sets (one call level deep),
the transitively pushed event kinds, and the transitively raised
exception types must agree under the declared field correspondence, and
the columnar core's cohort table must stay sound.

A core module opts in by declaring three module constants::

    _PARITY_CORE = "object"            # or "columnar"
    _PARITY_PEER = "repro.core.columnar"
    _PARITY_FIELDS = {"arrived": "lifecycle", "start": "start-time", ...}

``_PARITY_FIELDS`` maps each core's own physical field names onto
shared logical tokens; the diff happens in token space, so ``arrived``
(object) and ``state`` (columnar) can both mean "lifecycle".  A write
that is *deliberately* one-sided carries an end-of-line annotation::

    st.completion = completion  # parity: object-only

Soundness limits (documented, deliberate): writes through bare-``Name``
receivers (hoisted column locals like ``start_l[idx] = now``) are
invisible to the model — the columnar hot loop may cache columns
locally without polluting the diff — and queue bookkeeping fields in
:data:`INFRA_FIELDS` are excluded.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..base import ProgramRule, register
from ..findings import LintFinding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dataflow.program import Program
    from ..dataflow.summary import ClassSummary, FileSummary, FunctionSummary

__all__ = [
    "COMPARED_METHODS",
    "CoreModel",
    "CoreParityDriftRule",
    "INFRA_FIELDS",
    "SOUND_COHORTS",
    "extract_core_model",
]

#: The event-loop methods whose behaviour must correspond across cores.
COMPARED_METHODS = (
    "_handle_arrival",
    "_handle_deadline",
    "_handle_completion",
    "_handle_assign",
    "_handle_timer",
    "_handle_adversary",
    "_start_job",
    "_start_batch",
)

#: Queue/statistics bookkeeping outside the job-state parity model.
INFRA_FIELDS = {"_seq", "_events_processed", "_heap_peak"}

#: Event kinds whose events commute within a same-timestamp cohort, so a
#: vectorised ``_cohort_<kind>`` handler is sound.  DEADLINE (raises on
#: the first pending job), TIMER and ADVERSARY (arbitrary user hooks)
#: must stay scalar.
SOUND_COHORTS = {"arrival", "completion", "assign"}

_SIDES = {"object", "columnar"}


class CoreModel:
    """The extracted parity model of one core module."""

    def __init__(self, fs: "FileSummary", side: str, peer: str) -> None:
        self.fs = fs
        self.side = side
        self.peer = peer
        self.fields: dict[str, str] = {}
        raw = fs.dict_constants.get("_PARITY_FIELDS")
        if raw is not None:
            self.fields = {
                k: str(v) for k, v in raw.get("items", {}).items()
            }
        self.cls: "ClassSummary | None" = None
        best = -1
        for cls in fs.classes.values():
            n = sum(1 for m in COMPARED_METHODS if m in cls.methods)
            if n > best:
                best, self.cls = n, cls
        if best <= 0:
            self.cls = None
        #: method -> list of (field, token|None, annotation|None, line, col)
        self.writes: dict[str, list[tuple[str, str | None, str | None, int, int]]] = {}
        #: method -> transitively pushed event kinds
        self.kinds: dict[str, set[str]] = {}
        #: method -> transitively raised exception type names
        self.raises: dict[str, set[str]] = {}
        if self.cls is not None:
            for name in COMPARED_METHODS:
                if name in self.cls.methods:
                    self.writes[name] = self._one_level_writes(name)
                    self.kinds[name], self.raises[name] = self._closure(name)

    # -- model extraction ---------------------------------------------------
    def _method(self, name: str) -> "FunctionSummary | None":
        assert self.cls is not None
        return self.cls.methods.get(name)

    def _self_callees(self, fn: "FunctionSummary") -> list[str]:
        assert self.cls is not None
        out = []
        for cs in fn.calls:
            if cs.callee.startswith("self.") and "." not in cs.callee[5:]:
                leaf = cs.callee[5:]
                if leaf in self.cls.methods:
                    out.append(leaf)
        return out

    def _own_writes(
        self, fn: "FunctionSummary"
    ) -> list[tuple[str, str | None, str | None, int, int]]:
        out = []
        for field, _value, line, col in fn.state_writes:
            if field in INFRA_FIELDS:
                continue
            annot = self.fs.parity_lines.get(str(line))
            out.append((field, self.fields.get(field), annot, line, col))
        return out

    def _one_level_writes(
        self, name: str
    ) -> list[tuple[str, str | None, str | None, int, int]]:
        fn = self._method(name)
        assert fn is not None
        out = self._own_writes(fn)
        for callee in self._self_callees(fn):
            m = self._method(callee)
            if m is not None:
                out.extend(self._own_writes(m))
        return out

    def _closure(self, name: str) -> tuple[set[str], set[str]]:
        kinds: set[str] = set()
        raises: set[str] = set()
        seen: set[str] = set()
        stack = [name]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            fn = self._method(cur)
            if fn is None:
                continue
            kinds.update(k[1] for k in fn.push_keys)
            raises.update(r[0] for r in fn.raises)
            stack.extend(self._self_callees(fn))
        return kinds, raises

    def tokens(self, name: str) -> set[str]:
        """The comparable token write-set of one method (annotated and
        unmapped writes excluded — those are reported separately)."""
        return {
            tok
            for _f, tok, annot, _l, _c in self.writes.get(name, [])
            if tok is not None and annot is None
        }


def extract_core_model(program: "Program", module: str) -> CoreModel | None:
    """The parity model of ``module``, or ``None`` if it does not opt in.

    Exposed for the ``REPRO_PARITY=1`` runtime twin's cross-validation
    tests (static model vs. lockstep diff on shared fixtures).
    """
    fs = program.modules.get(module)
    if fs is None:
        return None
    side = fs.constants.get("_PARITY_CORE")
    peer = fs.constants.get("_PARITY_PEER")
    if side is None or side.get("k") != "str" or side["v"] not in _SIDES:
        return None
    peer_name = peer["v"] if peer is not None and peer.get("k") == "str" else ""
    return CoreModel(fs, side["v"], peer_name)


@register
class CoreParityDriftRule(ProgramRule):
    """RL013: a state field, event kind, or guard exists in one engine
    core with no mirror (and no annotation) in the other.

    Why: the columnar core re-implements the object core's event loop
    for speed; only their *observable equivalence* makes that safe.  A
    field mirrored in one core but not the other, or a handler that
    pushes an event kind its twin never pushes, is exactly the drift
    that passes unit tests on one core and corrupts traces on the
    other.  The runtime twin (``REPRO_PARITY=1`` lockstep shadow runs)
    catches drift that *executes*; this rule catches drift on paths no
    fixture exercises.

    The rule compares, per event-loop method (``_handle_*``,
    ``_start_job``, ``_start_batch``): state-field writes one call level
    deep (mapped to shared tokens via ``_PARITY_FIELDS``), pushed event
    kinds and raised exception types under the full same-class call
    closure, plus columnar-internal soundness — every ``_cohort_<k>``
    needs a scalar ``_handle_<k>`` twin (a recorder-armed run dispatches
    every event scalar-wise) and only commuting kinds
    (:data:`SOUND_COHORTS`) may be vectorised.

    Offending::

        # object core
        st.retries = 0            # no _PARITY_FIELDS entry, no annotation

    Clean::

        st.retries = 0            # parity: object-only
        # ... or map it:  _PARITY_FIELDS = {..., "retries": "retry-count"}
    """

    code = "RL013"
    name = "core-parity-drift"
    severity = "error"
    description = "dual-core engine state machines drifted apart"

    def check_program(self, program: "Program") -> Iterator[LintFinding]:
        models: dict[str, CoreModel] = {}
        for module in sorted(program.modules):
            model = extract_core_model(program, module)
            if model is not None:
                models[module] = model
        done: set[frozenset[str]] = set()
        for module, model in sorted(models.items()):
            yield from self._check_solo(model)
            peer = models.get(model.peer)
            pair = frozenset((module, model.peer))
            if peer is None:
                if model.peer not in program.modules:
                    line = self._const_line(model.fs, "_PARITY_CORE")
                    yield self.program_finding(
                        model.fs.path,
                        line,
                        0,
                        f"parity peer module {model.peer!r} is not in the "
                        "scan set — the core pair cannot be certified",
                        symbol=module,
                    )
                continue
            if pair in done or peer.peer != module:
                continue
            done.add(pair)
            yield from self._check_pair(model, peer)

    # -- helpers ------------------------------------------------------------
    @staticmethod
    def _const_line(fs: "FileSummary", name: str) -> int:
        entry = fs.dict_constants.get(name)
        if entry is not None:
            return int(entry.get("line", 1))
        return 1

    def _anchor(self, model: CoreModel, method: str) -> tuple[int, int]:
        if model.cls is None:
            return 1, 0
        fn = model.cls.methods.get(method)
        if fn is not None:
            return fn.lineno, 0
        return model.cls.lineno, 0

    def _emit(
        self, model: CoreModel, line: int, col: int, msg: str, symbol: str
    ) -> Iterator[LintFinding]:
        if not model.fs.is_suppressed(line, self.code):
            yield self.program_finding(
                model.fs.path, line, col, msg, symbol=symbol
            )

    def _check_solo(self, model: CoreModel) -> Iterator[LintFinding]:
        """Per-core checks: annotations and columnar-internal soundness."""
        if model.cls is None:
            yield from self._emit(
                model,
                1,
                0,
                "_PARITY_CORE is declared but no class defines any of the "
                "compared event-loop methods",
                model.fs.module,
            )
            return
        other = ({"object", "columnar"} - {model.side}).pop()
        for method, writes in sorted(model.writes.items()):
            for field, token, annot, line, col in writes:
                if annot == f"{other}-only":
                    yield from self._emit(
                        model,
                        line,
                        col,
                        f"write to {field!r} in the {model.side} core is "
                        f"annotated '# parity: {annot}' — the annotation "
                        "contradicts the core it lives in",
                        f"{model.cls.name}.{method}",
                    )
                elif annot is None and token is None:
                    yield from self._emit(
                        model,
                        line,
                        col,
                        f"state field {field!r} written in {method} has no "
                        "_PARITY_FIELDS mapping and no '# parity: "
                        f"{model.side}-only' annotation — the peer core "
                        "cannot be checked against it",
                        f"{model.cls.name}.{method}",
                    )
        if model.side == "columnar":
            yield from self._check_cohorts(model)

    def _check_cohorts(self, model: CoreModel) -> Iterator[LintFinding]:
        assert model.cls is not None
        cls = model.cls
        handlers = {
            m[len("_handle_") :] for m in cls.methods if m.startswith("_handle_")
        }
        for mname in sorted(cls.methods):
            if not mname.startswith("_cohort_"):
                continue
            kind = mname[len("_cohort_") :]
            fn = cls.methods[mname]
            if kind not in handlers:
                yield from self._emit(
                    model,
                    fn.lineno,
                    0,
                    f"vectorised handler {mname} has no scalar _handle_{kind} "
                    "twin — an armed run cannot reproduce it",
                    f"{cls.name}.{mname}",
                )
            if kind not in SOUND_COHORTS:
                yield from self._emit(
                    model,
                    fn.lineno,
                    0,
                    f"event kind {kind!r} is vectorised but not in the cohort "
                    f"soundness table {sorted(SOUND_COHORTS)} — same-timestamp "
                    f"{kind} events do not commute",
                    f"{cls.name}.{mname}",
                )

    def _check_pair(
        self, a: CoreModel, b: CoreModel
    ) -> Iterator[LintFinding]:
        if a.cls is None or b.cls is None:
            return
        for method in COMPARED_METHODS:
            in_a = method in a.cls.methods
            in_b = method in b.cls.methods
            if in_a != in_b:
                present = a if in_a else b
                absent = b if in_a else a
                line, col = self._anchor(present, method)
                yield from self._emit(
                    present,
                    line,
                    col,
                    f"event-loop method {method} exists only in the "
                    f"{present.side} core — no {absent.side} mirror",
                    f"{present.cls.name}.{method}",
                )
                continue
            if not in_a:
                continue
            yield from self._diff_tokens(a, b, method)
            yield from self._diff_sets(
                a, b, method, a.kinds[method], b.kinds[method], "event kind"
            )
            yield from self._diff_sets(
                a, b, method, a.raises[method], b.raises[method], "exception"
            )

    def _diff_tokens(
        self, a: CoreModel, b: CoreModel, method: str
    ) -> Iterator[LintFinding]:
        ta, tb = a.tokens(method), b.tokens(method)
        for model, peer_model, extra in ((a, b, ta - tb), (b, a, tb - ta)):
            for token in sorted(extra):
                site = next(
                    (
                        (line, col)
                        for _f, tok, annot, line, col in model.writes[method]
                        if tok == token and annot is None
                    ),
                    self._anchor(model, method),
                )
                yield from self._emit(
                    model,
                    site[0],
                    site[1],
                    f"{method} writes {token!r} state in the {model.side} "
                    f"core but the {peer_model.side} core's {method} does "
                    "not — undeclared parity drift",
                    f"{model.cls.name}.{method}" if model.cls else method,
                )

    def _diff_sets(
        self,
        a: CoreModel,
        b: CoreModel,
        method: str,
        sa: set[str],
        sb: set[str],
        what: str,
    ) -> Iterator[LintFinding]:
        for model, peer_model, extra in ((a, b, sa - sb), (b, a, sb - sa)):
            for item in sorted(extra):
                line, col = self._anchor(model, method)
                yield from self._emit(
                    model,
                    line,
                    col,
                    f"{method} can produce {what} {item!r} in the "
                    f"{model.side} core but never in the {peer_model.side} "
                    "core (same-class call closure)",
                    f"{model.cls.name}.{method}" if model.cls else method,
                )
