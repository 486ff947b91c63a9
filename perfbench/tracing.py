"""In-memory span tracing around circleact's public functions.

For a traced pass, every binding of a traced function inside the circleact
modules (the defining module and each module that imported it, such as
`circleact.cli.orbit_strata` or `circleact.numeric.same_orbit`) is replaced
by one wrapper that appends a span record.  `restore` puts the originals
back, so untraced passes run the package untouched.  `action` is not
traced: its value types and gcd helpers run at nanosecond scale from every
layer, so their time stays in their callers' self time.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Field order of a span record.
SPAN_FIELDS = ("name", "start", "end", "parent", "spec")

DIAGRAM_JSON = "stratification.diagram_json"


def _exit_counter(args, code):
    return {f"exit_{code}" if code in (0, 2) else "exit_other": 1}


# Span name -> (module, attribute, counter).  A counter maps the call's
# arguments and result to counts recorded under "<span name>.<key>".
TARGETS = {
    "invariants.hilbert_basis": (
        "invariants", "hilbert_basis", lambda args, out: {"basis_elems": len(out)}),
    "invariants.realize_generators": (
        "invariants", "realize_generators", lambda args, out: {"generators": len(out)}),
    "stratification.orbit_strata": (
        "stratification",
        "orbit_strata",
        # faces_computed is 2^m - 1 per call, taken from the input.
        lambda args, out: {"strata": len(out.strata), "faces_computed": 2 ** args[0].m - 1},
    ),
    "stratification.hasse_edges": ("stratification", "hasse_edges", None),
    "recovery.recover_weights": ("recovery", "recover_weights", None),
    "numeric.run_property_suite": ("numeric", "run_property_suite", None),
    "numeric.check_invariance": ("numeric", "check_invariance", None),
    "numeric.check_homogeneity": ("numeric", "check_homogeneity", None),
    "numeric.check_separation": (
        "numeric", "check_separation", lambda args, out: {"trials": out["trials"]}),
    "numeric.check_membership": ("numeric", "check_membership", None),
    "numeric.evaluate_hilbert_map": ("numeric", "evaluate_hilbert_map", None),
    "numeric.same_orbit": ("numeric", "same_orbit", None),
    "cli.main": ("cli", "main", _exit_counter),
}


class Tracer:
    """Collects span records [name, start, end, parent, spec] in memory.

    `parent` is the index of the enclosing span in `spans` (-1 at top
    level) and `spec` is whatever the runner set as the current input id.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.spec = None
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.spec]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, out).items():
                    counts[f"{name}.{key}"] += value
            return out

        return traced

    def install(self):
        """Wrap every circleact binding of the traced functions; return a
        function that restores the originals."""
        modules = [mod for key, mod in sys.modules.items() if key.split(".")[0] == "circleact"]
        patched = []
        for name, (module, attr, counter) in TARGETS.items():
            original = getattr(sys.modules[f"circleact.{module}"], attr)
            wrapper = self.wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patched.append((mod, key, value))
                        setattr(mod, key, wrapper)
        diagram_cls = sys.modules["circleact.stratification"].StratificationDiagram
        for attr in ("to_json", "from_json"):
            raw = diagram_cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapper = classmethod(self.wrap(DIAGRAM_JSON, raw.__func__))
            else:
                wrapper = self.wrap(DIAGRAM_JSON, raw)
            patched.append((diagram_cls, attr, raw))
            setattr(diagram_cls, attr, wrapper)

        def restore():
            for owner, key, value in reversed(patched):
                setattr(owner, key, value)

        return restore

    def records(self):
        """Span records as dicts keyed by SPAN_FIELDS."""
        return [dict(zip(SPAN_FIELDS, span)) for span in self.spans]

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records():
                fh.write(json.dumps(record) + "\n")


def self_times(spans) -> tuple[dict[str, float], Counter]:
    """Per-name total self time (duration minus child spans) and call count."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for index, (name, start, end, _, _) in enumerate(spans):
        totals[name] += end - start - child[index]
        calls[name] += 1
    return totals, calls


# Per-layer metrics: name -> unit.  Every one is reported on every
# workload; a layer the workload never calls reads 0.
SELF_TIMED = [
    "invariants.hilbert_basis",
    "invariants.realize_generators",
    "stratification.orbit_strata",
    "stratification.hasse_edges",
    DIAGRAM_JSON,
    "recovery.recover_weights",
    "numeric.run_property_suite",
    "numeric.check_invariance",
    "numeric.check_homogeneity",
    "numeric.check_separation",
    "numeric.check_membership",
    "numeric.evaluate_hilbert_map",
    "numeric.same_orbit",
    "cli.main",
]
CALLED = [
    "invariants.hilbert_basis",
    "stratification.orbit_strata",
    "recovery.recover_weights",
    "numeric.evaluate_hilbert_map",
    "numeric.same_orbit",
    "cli.main",
]
SHARED = [
    "invariants.hilbert_basis",
    "stratification.orbit_strata",
    "recovery.recover_weights",
    "numeric.same_orbit",
    "cli.main",
]
COUNTED = [
    "invariants.hilbert_basis.basis_elems",
    "invariants.realize_generators.generators",
    "stratification.orbit_strata.strata",
    "stratification.orbit_strata.faces_computed",
    "recovery.recover_weights.accepted_certified",
    "recovery.recover_weights.accepted_uncertified",
    "recovery.recover_weights.rejected",
    "cli.main.exit_0",
    "cli.main.exit_2",
    "cli.main.exit_other",
]
RATIOS = [
    "stratification.orbit_strata.strata_per_face",
    "numeric.check_separation.orbit_tests_per_trial",
    "trace.overhead_frac",
]
PER_LAYER_UNITS = {
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **{f"{name}.calls": "count" for name in CALLED},
    **{f"{name}.share": "fraction" for name in SHARED},
    **{name: "count" for name in COUNTED},
    **{name: "ratio" for name in RATIOS},
}


def layer_metrics(tracer: Tracer, passes: int, traced_s: float, untraced_s: float) -> dict:
    """Per-pass per-layer metrics from the spans of `passes` traced passes.

    `traced_s` and `untraced_s` are the summed wall times of the traced and
    the untraced passes over the same inputs.
    """
    totals, calls = self_times(tracer.spans)
    counts = tracer.counts
    values = {}
    for name in SELF_TIMED:
        values[f"{name}.self_s"] = totals.get(name, 0.0) / passes
    for name in CALLED:
        values[f"{name}.calls"] = calls[name] / passes
    for name in SHARED:
        values[f"{name}.share"] = totals.get(name, 0.0) / traced_s
    for name in COUNTED:
        values[name] = counts[name] / passes
    faces = counts["stratification.orbit_strata.faces_computed"]
    values["stratification.orbit_strata.strata_per_face"] = (
        counts["stratification.orbit_strata.strata"] / faces if faces else 0.0
    )
    trials = counts["numeric.check_separation.trials"]
    values["numeric.check_separation.orbit_tests_per_trial"] = (
        calls["numeric.same_orbit"] / trials if trials else 0.0
    )
    values["trace.overhead_frac"] = traced_s / untraced_s - 1
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
