"""The names the benchmark in perfbench/ reaches into still exist.

perfbench wraps kumfib's layer functions by name, clears its caches and
checks its catalog; a rename or deletion of any of those names would only
show when the benchmark runs.  These calls fail fast instead.  (Generating a
workload is left out: it replaces hodge.search_tuples for good.)
"""

import sys
from pathlib import Path

import kumfib
import kumfib.cli
import kumfib.verification

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tracing_installs_and_uninstalls():
    originals = (kumfib.hodge.validate, kumfib.cli.main, kumfib.monodromy.track_loop)
    tracer = tracing.Tracer()
    tracing.install(tracer, kumfib)
    assert kumfib.cli.main is not originals[1]
    tracer.uninstall()
    assert (kumfib.hodge.validate, kumfib.cli.main, kumfib.monodromy.track_loop) == originals


def test_caches_reset_and_catalog_checked():
    workloads.reset_caches(kumfib)
    workloads.check_catalog(kumfib)
