"""Spans and counters recorded around calls into kumfib's layers.

The benchmark wraps public functions from outside: it replaces the module
attribute with a wrapper and puts the original back on uninstall.  Where a
module imported a function by name (hodge imports search_tuples from
hurwitz, verification imports compose from exact), the wrapper goes on
every name it is called through.  Spans are kept in memory; a layer's self
time is its span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.process_time_ns):
        self._clock = clock  # CPU ns
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op index]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)  # open spans by name
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self._open[name] += 1
        self.spans.append([name, self._clock(), 0, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = self._clock()
        self._open[span[0]] -= 1
        self._stack.pop()

    def begin_op(self, name: str) -> int:
        self._op += 1
        return self.open(name)

    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    # -- installing wrappers --------------------------------------------------------

    def wrap(self, module, attr: str, name, on_result=None) -> None:
        """Record a span named `name` (or name(*args)) around module.attr.

        A call nested in a span of the same name records nothing, so
        recursive layers are not counted twice.
        """
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            if tracer.inside(span_name):
                return original(*args, **kwargs)
            index = tracer.open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if on_result is not None:
                on_result(tracer, result)
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def count_calls(self, module, attr: str, counter: str, within: str) -> None:
        """Count calls to module.attr made inside a span named `within`."""
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.inside(within):
                tracer.counts[counter] += 1
            return original(*args, **kwargs)

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- aggregation --------------------------------------------------------------

    def totals_ms(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: total ms, self ms and number of spans."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            ms = (end - start) / 1e6
            total[name] += ms
            calls[name] += 1
            if parent >= 0:
                child[parent] += ms
        own: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += (end - start) / 1e6 - child[index]
        return total, own, calls

    def as_json(self) -> dict:
        return {
            "spans": [
                {"name": n, "start_ns": s, "end_ns": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans
            ],
            "counts": dict(self.counts),
        }


def install(tracer: Tracer, kumfib) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    cli, exact, family, hodge, hurwitz, kodaira, monodromy, mpolar, verification = (
        kumfib.cli,
        kumfib.exact,
        kumfib.family,
        kumfib.hodge,
        kumfib.hurwitz,
        kumfib.kodaira,
        kumfib.monodromy,
        kumfib.mpolar,
        kumfib.verification,
    )

    def loop_name(spec, *args, **kwargs):
        center = spec.center
        label = "infinity" if center == monodromy.INFINITY else ("zero" if center == 0 else "quarter256")
        return f"monodromy.track_loop.{label}"

    def search_result(t, result):
        t.counts["hurwitz.search_tuples.tuples"] += len(result.covers)
        t.counts["hurwitz.search_tuples.truncated"] += int(result.truncated)

    def pullback_result(t, result):
        t.counts["hurwitz.pullback.components"] += len(result)

    for module in (hurwitz, hodge):
        tracer.wrap(module, "search_tuples", "hurwitz.search_tuples", search_result)
        tracer.wrap(module, "pullback", "hurwitz.pullback", pullback_result)
        tracer.wrap(module, "validate", "hurwitz.validate")
    tracer.count_calls(
        hurwitz, "is_transitive", "hurwitz.search_tuples.transitivity_tests", "hurwitz.search_tuples"
    )
    tracer.wrap(hodge, "fixed_curve", "hodge.fixed_curve")
    tracer.wrap(hodge, "analyze_cover", "hodge.analyze_cover")
    tracer.wrap(hodge, "analyze_branch_data", "hodge.analyze_branch_data")
    tracer.wrap(cli, "load_document", "cli.load_document")
    tracer.wrap(cli, "report_record", "cli.report_record")
    tracer.wrap(cli, "cmd_report", "cli.cmd_report")
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(monodromy, "track_loop", loop_name)
    tracer.wrap(monodromy, "puncture_table", "monodromy.puncture_table")
    tracer.wrap(monodromy, "base_configuration", "monodromy.base_configuration")
    for module in (exact, family, kodaira, verification):
        tracer.wrap(module, "compose", "exact.compose")
    tracer.wrap(kodaira, "classify", "kodaira.classify")
    tracer.wrap(kodaira, "j_function", "kodaira.j_function")
    tracer.wrap(family, "cover_tower", "family.cover_tower")
    tracer.wrap(mpolar, "sigma_pi", "mpolar.sigma_pi")


def layer_metrics(tracer: Tracer, rounds: int, check_keys: list[str]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, per round, from the spans and counts of `rounds` rounds."""
    total, own, calls = tracer.totals_ms()
    counts = tracer.counts
    per = 1.0 / rounds
    out: dict[str, tuple[float, str]] = {}

    def ms(metric, span, table=total):
        out[metric] = (table.get(span, 0.0) * per, "ms")

    def count(metric, value):
        out[metric] = (value * per, "count")

    for label in ("zero", "quarter256", "infinity"):
        ms(f"monodromy.track_loop.{label}_ms", f"monodromy.track_loop.{label}")
    count(
        "monodromy.track_loop.calls",
        sum(calls.get(f"monodromy.track_loop.{label}", 0) for label in ("zero", "quarter256", "infinity")),
    )
    ms("monodromy.puncture_table_ms", "monodromy.puncture_table")
    ms("monodromy.base_configuration_ms", "monodromy.base_configuration")

    ms("hurwitz.search_tuples_ms", "hurwitz.search_tuples")
    count("hurwitz.search_tuples.calls", calls.get("hurwitz.search_tuples", 0))
    tuples = counts.get("hurwitz.search_tuples.tuples", 0)
    tests = counts.get("hurwitz.search_tuples.transitivity_tests", 0)
    count("hurwitz.search_tuples.tuples", tuples)
    count("hurwitz.search_tuples.truncated", counts.get("hurwitz.search_tuples.truncated", 0))
    count("hurwitz.search_tuples.transitivity_tests", tests)
    out["hurwitz.search_tuples.tuples_per_test"] = (tuples / tests if tests else 0.0, "ratio")

    ms("hurwitz.pullback_ms", "hurwitz.pullback")
    count("hurwitz.pullback.calls", calls.get("hurwitz.pullback", 0))
    count("hurwitz.pullback.components", counts.get("hurwitz.pullback.components", 0))
    ms("hurwitz.validate_ms", "hurwitz.validate")
    ms("hodge.fixed_curve_ms", "hodge.fixed_curve")
    ms("hodge.analyze_cover_ms", "hodge.analyze_cover")
    ms("hodge.analyze_branch_data.self_ms", "hodge.analyze_branch_data", own)

    ms("cli.load_document_ms", "cli.load_document")
    ms("cli.report_record_ms", "cli.report_record")
    ms("cli.cmd_report.self_ms", "cli.cmd_report", own)
    ms("cli.main.self_ms", "cli.main", own)  # argument parsing around cmd_report

    for key in check_keys:  # per run of the check: a round repeats most of them
        span = f"verification.check.{key}"
        out[f"{span}_ms"] = (total.get(span, 0.0) / calls[span] if calls.get(span) else 0.0, "ms")

    ms("exact.compose_ms", "exact.compose")
    ms("kodaira.classify_ms", "kodaira.classify")
    ms("kodaira.j_function_ms", "kodaira.j_function")
    ms("family.cover_tower_ms", "family.cover_tower")
    ms("mpolar.sigma_pi_ms", "mpolar.sigma_pi")
    return out
