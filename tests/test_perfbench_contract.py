"""The names the benchmark in perfbench/ reaches into still exist.

perfbench wraps kumfib's layer functions by name, clears its caches and
checks its catalog; a rename or deletion of any of those names would only
show when the benchmark runs.  These calls fail fast instead.  `catalog`
and `reports` replace hodge.search_tuples to capture its results, so they
are built under monkeypatch, which puts the original back.
"""

import sys
from pathlib import Path

import kumfib
import kumfib.cli
import kumfib.verification

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tracing_installs_and_uninstalls():
    originals = (kumfib.hodge.validate, kumfib.cli.main, kumfib.monodromy.track_loop)
    tracer = tracing.Tracer()
    tracing.install(tracer, kumfib)
    assert kumfib.cli.main is not originals[1]
    tracer.uninstall()
    assert (kumfib.hodge.validate, kumfib.cli.main, kumfib.monodromy.track_loop) == originals


def test_traced_fixed_curve_counts_its_pullbacks():
    # the per-layer pullback metrics measure the fixed-curve work: one span
    # per distinct fixed-curve component, 2 + 4 pulled-back components
    g = kumfib.hurwitz.regular_deck_cover()
    tracer = tracing.Tracer()
    tracing.install(tracer, kumfib)
    try:
        kumfib.hodge.fixed_curve(g)
    finally:
        tracer.uninstall()
    assert tracer.totals_ms()[2]["hurwitz.pullback"] == 2
    assert tracer.counts["hurwitz.pullback.components"] == 6


def test_caches_reset_and_catalog_checked():
    workloads.reset_caches(kumfib)
    workloads.check_catalog(kumfib)


def test_paper_loop_tables_pass_the_benchmark_oracle(tmp_path):
    # the benchmark's loop-table gate: the same table at 64, 128 and 256
    # steps, the product relation, and the infinity loop tracked directly
    workload = workloads.paper(kumfib, 0, tmp_path)
    checks = [op for op in workload.ops if op.name.startswith("verification.check.")]
    assert checks and {op.key for op in checks} <= set(kumfib.verification.check_keys())
    loops = [op for op in workload.ops if op.name.startswith("monodromy.loop_table.")]
    assert [op.name for op in loops] == [f"monodromy.loop_table.{s}" for s in workloads.STEP_SCALES]
    for op in loops:
        assert op.check(op.call()) is False
    workload.finish_round()


def test_catalog_and_reports_ops_pass_the_benchmark_oracle(monkeypatch, tmp_path):
    # the benchmark's gates on the search and the pullback: records checked
    # against s, p_g and Hodge numbers that perfbench/oracle.py recomputes
    monkeypatch.setattr(kumfib.hodge, "search_tuples", kumfib.hodge.search_tuples)
    catalog = dict(zip(workloads.catalog_sample(), workloads.catalog(kumfib, 0, tmp_path).ops))
    r_zero = next(d for d in catalog if d[4] == 0 and d != oracle.REGULAR_DATUM)
    cover = next(op for op in workloads.reports(kumfib, 0, tmp_path).ops if op.tag == "cover")
    ops = [catalog[oracle.QUINTIC_DATUM], catalog[oracle.REGULAR_DATUM], catalog[r_zero], cover]
    failed = []
    for op in ops:
        op.prepare()
        failed.append(op.check(op.call()))
    assert failed == [False] * 4  # none truncated
