"""The traced run: per-layer spans and exact counts, recorded from outside.

Nothing inside ``strata`` is edited.  For each operation the traced run times
``strata.cli.main(argv)`` twice: once as is (untraced), then with wrappers
installed around the library calls the command handlers make (traced).  The
wrappers record a span around each call:

- every library function ``strata.cli`` imports, at the name it is looked
  up under there, so only the handlers' own calls are spans;
- the ``AnalysisDocument`` methods the handlers call, and
  ``CylinderClass.from_edge``;
- the first ``EquationSystem.rref_rows`` of each system (``equations.rref``);
- ``linalg.rref``, ``linalg.bareiss_det`` and ``equations.is_correlated`` at
  every module binding, since ``strata.aim`` imports ``is_correlated`` by
  name.  These also keep the counts.

Spans are (name, start, end, parent, operation id) tuples kept in memory and
written out when the run ends.  A layer's self time is its span minus the
layer spans and ``linalg.rref`` spans inside it.  ``cli.self_ms`` is the
traced verdict time minus the top-level spans: argument parsing and
rendering.  So within one execution the layers, ``linalg.rref_ms`` and
``cli.self_ms`` add up to the traced verdict time, which is the untraced
time plus the tracing overhead.  A verdict has no queue or lock, so there is
no wait time to report.
"""

from __future__ import annotations

import contextlib
import json
import random
import statistics
import sys
import time

import calib
from harness import Tally, check_in_process

# Library functions the handlers in strata/cli.py call, by the name
# strata.cli binds them to, and the span each call is recorded as.
CLI_CALLS = {
    "load_document": "document.load",
    "consistency_report": "equations.consistency",
    "cross_equivalence_classes": "equations.classes",
    "residue_forms": "equations.residue_forms",
    "enumerate_undegenerations": "level_graph.enumerate",
    "classify_undegeneration": "equations.undeg_table",
    "convert": "plumbing.convert",
    "local_model": "plumbing.local_model",
    "lattice_analysis": "plumbing.lattice",
    "hurwitz_rule": "plumbing.hurwitz",
    "check_preserved": "deformation.check",
    "tangent_absolute": "aim.tangent",
    "lemma_bound": "aim.lemma_bound",
    "pairwise_cross_witness": "aim.pairwise_cross",
    "pairwise_circum_decompose": "aim.decompose",
    "at_most_two_decompose": "aim.decompose",
}

# Methods the handlers call on library objects: (module, class, attribute).
METHODS = {
    ("document", "AnalysisDocument", "violations"): "document.violations",
    ("document", "AnalysisDocument", "symplectic"): "document.build",
    ("document", "AnalysisDocument", "periods"): "document.build",
    ("document", "AnalysisDocument", "deformation_requests"): "document.build",
    ("deformation", "CylinderClass", "from_edge"): "deformation.from_edge",
}

LAYERS = tuple(dict.fromkeys(["equations.rref", *CLI_CALLS.values(), *METHODS.values()]))

COUNTS = (
    "linalg.rref_calls",
    "linalg.rref_cells",
    "linalg.bareiss_calls",
    "equations.is_correlated_calls",
    "equations.undeg_rows",
)

GAUSSIAN_PAIRS = 256
GAUSSIAN_REPEATS = 7


class Tracer:
    """Span recorder plus the counters the wrappers feed."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int | None, int]] = []
        self._stack: list[int] = []
        self.op_id = 0
        self.counts = dict.fromkeys(COUNTS, 0)
        self.rref_repeats = 0
        self.correlated_repeats = 0
        self._seen_matrices: set = set()
        self._seen_edge_sets: set = set()
        self._seen_systems: set[int] = set()

    def begin_op(self, op_id: int) -> None:
        """Start a verdict: repeats and first rref are counted per verdict."""
        self.op_id = op_id
        self._seen_matrices.clear()
        self._seen_edge_sets.clear()
        self._seen_systems.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, time.perf_counter_ns(), 0, parent, self.op_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent, op_id = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter_ns(), parent, op_id)

    @staticmethod
    def empty_span_ns() -> int:
        """What recording a span costs when the layer inside does nothing."""
        probe = Tracer()
        with probe.span("empty"):
            pass
        _, start, end, _, _ = probe.spans[0]
        return end - start

    # -- wrapper bodies -------------------------------------------------------------

    def call(self, name: str, original, *args, **kwargs):
        if name == "equations.undeg_table":
            self.counts["equations.undeg_rows"] += 1
        with self.span(name):
            return original(*args, **kwargs)

    def rref_rows(self, original, system):
        if id(system) in self._seen_systems:
            return original(system)
        self._seen_systems.add(id(system))
        with self.span("equations.rref"):
            return original(system)

    def rref(self, original, rows):
        rows = [tuple(r) for r in rows]
        key = tuple(rows)
        if key in self._seen_matrices:
            self.rref_repeats += 1
        self._seen_matrices.add(key)
        self.counts["linalg.rref_calls"] += 1
        self.counts["linalg.rref_cells"] += len(rows) * (len(rows[0]) if rows else 0)
        with self.span("linalg.rref"):
            return original(rows)

    def bareiss_det(self, original, rows):
        self.counts["linalg.bareiss_calls"] += 1
        with self.span("linalg.bareiss_det"):
            return original(rows)

    def is_correlated(self, original, system, edges):
        edges = frozenset(edges)
        key = (id(system), edges)
        if key in self._seen_edge_sets:
            self.correlated_repeats += 1
        self._seen_edge_sets.add(key)
        self.counts["equations.is_correlated_calls"] += 1
        with self.span("equations.is_correlated"):
            return original(system, edges)


def _wrapper(body, *bound):
    def wrapper(*args, **kwargs):
        return body(*bound, *args, **kwargs)

    return wrapper


class Wrappers:
    """Install the tracer's wrappers, and put every original back."""

    def __init__(self, tracer: Tracer):
        import strata.cli
        from strata import deformation, document, equations, linalg

        modules = {"document": document, "deformation": deformation}
        # (owner, attribute, replacement); the original is read at install.
        self.targets: list[tuple[object, str, object]] = []
        for attr, name in CLI_CALLS.items():
            original = getattr(strata.cli, attr)
            self.targets.append((strata.cli, attr, _wrapper(tracer.call, name, original)))
        for (mod, cls_name, attr), name in METHODS.items():
            cls = getattr(modules[mod], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(_wrapper(tracer.call, name, raw.__func__))
            else:
                new = _wrapper(tracer.call, name, raw)
            self.targets.append((cls, attr, new))
        prop = equations.EquationSystem.__dict__["rref_rows"]
        self.targets.append(
            (equations.EquationSystem, "rref_rows", property(_wrapper(tracer.rref_rows, prop.fget)))
        )
        for original, body in (
            (linalg.rref, tracer.rref),
            (linalg.bareiss_det, tracer.bareiss_det),
            (equations.is_correlated, tracer.is_correlated),
        ):
            wrapped = _wrapper(body, original)
            wrapped.__wrapped__ = original
            for module, attr in self.bindings(original):
                self.targets.append((module, attr, wrapped))
        self._saved: list[tuple[object, str, object]] = []

    @staticmethod
    def bindings(original):
        """(module, attribute) for every ``strata`` module binding of ``original``."""
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name == "strata" or mod_name.startswith("strata."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        yield module, attr

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("wrappers already installed")
        for owner, attr, new in self.targets:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.remove()


# -- Q(i) arithmetic on the workload's own coefficients ------------------------------


def workload_coefficients(workload) -> list:
    """Nonzero entries of the declared equations and of their rref rows."""
    from strata import document

    values = []
    for path in sorted({op.path for op in workload.ops}):
        doc = document.load_document(path)
        for eq in doc.raw_equations:
            values += [c for c in (*eq.coeffs.values(), *eq.lam.values()) if c]
        if not doc.violations():
            for eq in doc.system().rref_rows:
                values += [c for c in eq.cycle.to_vector() if c]
    return values


def gaussian_ns(values: list, seed: int) -> dict[str, float]:
    """Median ns per Q(i) multiply and add over operand pairs from ``values``."""
    r = random.Random(f"gaussian:{seed}")
    pairs = [(r.choice(values), r.choice(values)) for _ in range(GAUSSIAN_PAIRS)]
    out = {}
    for name, fn in (("gaussian.mul_ns", lambda a, b: a * b), ("gaussian.add_ns", lambda a, b: a + b)):
        times = []
        for _ in range(GAUSSIAN_REPEATS):
            start = time.perf_counter_ns()
            results = [fn(a, b) for a, b in pairs]
            times.append((time.perf_counter_ns() - start) / len(results))
        out[name] = statistics.median(times)
    return out


# -- the traced loop ---------------------------------------------------------------------


def self_times(spans, first: int) -> tuple[dict[str, int], int]:
    """Self ns per layer and for ``linalg.rref``, and the top-level span ns.

    A span owns its time if it is a layer, ``linalg.rref``, or top-level;
    other spans (``is_correlated``, ``bareiss_det``) leave their time with
    the span that owns their parent.  An owning span's time is taken out of
    its parent's owner, so every nanosecond of a top-level span is counted
    exactly once.
    """
    owned: dict[str, int] = {}
    owner: dict[int, int] = {}
    top_ns = 0
    for k in range(first, len(spans)):
        name, start, end, parent, _ = spans[k]
        duration = end - start
        if parent is None:
            top_ns += duration
        if parent is None or name in LAYERS or name == "linalg.rref":
            owner[k] = k
            owned[name] = owned.get(name, 0) + duration
            if parent is not None:
                outer = spans[owner[parent]][0]
                owned[outer] -= duration
        else:
            owner[k] = owner[parent]
    return owned, top_ns


def traced_run(main, workload, digests, seconds: float, tally: Tally):
    """Whole traced rounds until the next would end after ``seconds``."""
    tracer = Tracer()
    wrappers = Wrappers(tracer)
    rounds = []
    start = time.perf_counter()
    op_id = 0
    while True:
        round_start = time.perf_counter()
        round_calib = calib.point()
        first_span = len(tracer.spans)
        counts_before = dict(tracer.counts)
        repeats_before = (tracer.rref_repeats, tracer.correlated_repeats)
        untraced_ns = traced_ns = 0
        for op in workload.ops:
            op_id += 1
            untraced_ns += check_in_process(main, op, digests, tally) * 1e6
            with wrappers.installed():
                tracer.begin_op(op_id)
                traced_ns += check_in_process(main, op, digests, tally) * 1e6
        owned, top_ns = self_times(tracer.spans, first_span)
        counts = {k: tracer.counts[k] - counts_before[k] for k in COUNTS}
        rref_repeats = tracer.rref_repeats - repeats_before[0]
        correlated_repeats = tracer.correlated_repeats - repeats_before[1]
        rounds.append(
            {
                "owned_ns": owned,
                "cli_self_ns": traced_ns - top_ns,
                "untraced_ns": untraced_ns,
                "traced_ns": traced_ns,
                "counts": counts,
                "rref_repeat_ratio": rref_repeats / counts["linalg.rref_calls"]
                if counts["linalg.rref_calls"] else 0.0,
                "correlated_repeat_ratio": correlated_repeats / counts["equations.is_correlated_calls"]
                if counts["equations.is_correlated_calls"] else 0.0,
                "calib_ms": round_calib,
            }
        )
        now = time.perf_counter()
        if now + (now - round_start) > start + seconds:
            break
    return rounds, tracer.spans


def per_layer(rounds, gaussian: dict[str, float]) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics and any count disagreement between rounds.

    Times are means over the traced rounds, so they add up exactly: the
    layers, ``linalg.rref_ms`` and ``cli.self_ms`` sum to
    ``verdict.traced_ms``, which is ``verdict.untraced_ms`` plus
    ``trace.overhead_ms``.  A layer no operation of the workload reaches
    reports the cost of one empty span instead of a constant 0.
    """

    def mean_ms(get) -> float:
        return statistics.fmean(get(r) for r in rounds) / 1e6

    metrics: dict[str, tuple[float, str]] = {}
    for name in (*LAYERS, "linalg.rref"):
        if any(name in r["owned_ns"] for r in rounds):
            metrics[f"{name}_ms"] = (mean_ms(lambda r, n=name: r["owned_ns"].get(n, 0)), "ms")
        else:
            metrics[f"{name}_ms"] = (Tracer.empty_span_ns() / 1e6, "ms")
    metrics["cli.self_ms"] = (mean_ms(lambda r: r["cli_self_ns"]), "ms")
    metrics["verdict.untraced_ms"] = (mean_ms(lambda r: r["untraced_ns"]), "ms")
    metrics["verdict.traced_ms"] = (mean_ms(lambda r: r["traced_ns"]), "ms")
    metrics["trace.overhead_ms"] = (mean_ms(lambda r: r["traced_ns"] - r["untraced_ns"]), "ms")
    counts = rounds[0]["counts"]
    problems = []
    for r in rounds[1:]:
        if r["counts"] != counts:
            problems.append(f"counts differ between traced rounds: {counts} vs {r['counts']}")
    for name in COUNTS:
        metrics[name] = (float(counts[name]), "count")
    metrics["linalg.rref_repeat_ratio"] = (rounds[0]["rref_repeat_ratio"], "ratio")
    metrics["equations.is_correlated_repeat_ratio"] = (rounds[0]["correlated_repeat_ratio"], "ratio")
    for name, value in gaussian.items():
        metrics[name] = (value, "ns")
    metrics["calib_ms"] = (statistics.median(r["calib_ms"] for r in rounds), "ms")
    return metrics, problems


def accounting_ms(rounds) -> tuple[float, float]:
    """(sum of all owned span time plus cli self time, traced verdict time), mean ms."""
    total = statistics.fmean(sum(r["owned_ns"].values()) + r["cli_self_ns"] for r in rounds)
    traced = statistics.fmean(r["traced_ns"] for r in rounds)
    return total / 1e6, traced / 1e6


def write_spans(path: str, workload: str, seed: int, spans) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                "spans": spans,
            },
            handle,
        )
