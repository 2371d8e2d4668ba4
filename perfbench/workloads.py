"""The three workloads: their inputs, their operations and the checks on each.

An operation is one small unit of the program's work: one registry check or
one loop table (`paper`), one branch datum (`catalog`), one document
(`reports`).  Its `call` is what is timed; its `check` runs after the timer
stops and compares the output with values recomputed by `oracle`.  `check`
returns True when the operation failed (a truncated search) and raises
`Incorrect` when the output is wrong; an operation whose call raises has
failed too.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import oracle


class Incorrect(Exception):
    """The program's output disagrees with the recomputed value."""


@dataclass
class Op:
    name: str  # also the span name of the operation in a traced run
    tag: str  # the group its failures are counted under
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    prepare: Callable[[], None] | None = None  # runs before the timer starts
    key: str | None = None  # ops of a round with one key are repeats of one op


@dataclass
class Workload:
    ops: list[Op]
    finish_round: Callable[[], None] = lambda: None
    notes: dict = field(default_factory=dict)


def images(perm, n: int) -> tuple[int, ...]:
    return tuple(perm(i) for i in range(1, n + 1))


def cover_images(cover) -> tuple:
    return tuple(images(p, cover.degree) for p in cover.permutations)


class SearchCapture:
    """Keeps the last results of hodge's tuple search for the s / p_g check.

    The wrapper only stores a reference to the result, so it costs one extra
    call per search.
    """

    def __init__(self, hodge):
        self.results = []
        original = hodge.search_tuples

        def capture(*args, **kwargs):
            result = original(*args, **kwargs)
            self.results.append(result)
            return result

        hodge.search_tuples = capture


def branch_record_problems(records, data, results) -> list[str]:
    """Report records of one branch datum against the tuples the search returned."""
    covers = [cover_images(c) for r in results for c in r.covers]
    truncated = any(r.truncated for r in results)
    outcomes: dict[tuple[int, int], tuple] = {}
    for cover in covers:
        s, genera = oracle.fixed_curve_pullback(cover)
        outcomes.setdefault((s, sum(genera)), (s, genera))
    problems = []
    if not outcomes:
        if len(records) != 1:
            return [f"{len(records)} records for a datum with no tuple"]
        problems += oracle.record_problems(records[0], data, None)
    elif len(records) != len(outcomes):
        return [f"{len(records)} records for {len(outcomes)} distinct (s, p_g)"]
    else:
        for record in records:
            curve = record["fixed_curve"]
            key = None if curve is None else (curve["components"], curve["p_g"])
            if key not in outcomes:
                problems.append(f"outcome {key} not among recomputed {sorted(outcomes)}")
                continue
            problems += oracle.record_problems(record, data, outcomes[key])
    for record in records:
        if record["search_truncated"] != truncated:
            problems.append("search_truncated flag disagrees with the search result")
        if record["ambiguous"] != (len(outcomes) > 1):
            problems.append("ambiguous flag disagrees with the number of outcomes")
    return problems


def reset_caches(kumfib) -> None:
    """Empty the per-process caches, as a fresh CLI process has them."""
    kumfib.monodromy._BASE_CACHE.clear()
    reset_check_caches(kumfib)


def reset_check_caches(kumfib) -> None:
    """Empty every per-process cache but the tracker's base configuration."""
    kumfib.hurwitz._permutations_of_type.cache_clear()
    kumfib.verification._shared.clear()
    import sympy.core.cache

    sympy.core.cache.clear_cache()


# -- paper ------------------------------------------------------------------------------

#: verify-paper's registry without loop-table and step-stability, whose
#: computation the benchmark makes itself so that it can check it.
PAPER_CHECKS = (
    "tower",
    "fiber-table",
    "fiber-orders",
    "j-formula",
    "delta-factorization",
    "cross-family",
    "deck-group",
    "kummer-involutions",
    "fixed-curve-data",
    "quintic-example",
    "regular-cover-example",
    "pinned-constants",
    "cy-vs-riemann-hurwitz",
    "pullback-accounting",
    "vieta",
)
#: Runs once a round, in a pass of its own; the other checks run in every pass.
SLOW_CHECKS = ("cy-vs-riemann-hurwitz",)
STEP_SCALES = (64, 128, 256)


def paper(kumfib, seed: int, workdir: Path) -> Workload:
    """verify-paper's work: 15 registry checks and the loop table at three step scales.

    A round is a pass of 14 checks before each loop table and one after the
    last, and then the 3.5 s `cy-vs-riemann-hurwitz` alone.  Each pass
    starts from empty check caches, as `verify-paper` does, so every check
    has four samples spread over the round and the median check time rests
    on more than two measurements.  The passes do the same work:
    `cy-vs-riemann-hurwitz` fills a cache that `pullback-accounting`, next
    in the registry, would find full in one pass and empty in the others.  The computation has no
    inputs, so the seed changes nothing here.
    """
    verification, monodromy = kumfib.verification, kumfib.monodromy
    tables: dict[int, dict] = {}
    direct: dict[str, tuple] = {}

    def run_check(key):
        return lambda: verification.run_one(key)

    def check_result(result) -> bool:
        if not result.passed:
            raise Incorrect(f"{result.key}: expected {result.expected}, got {result.actual}")
        return False

    def loop_table(steps):
        def call():
            table = monodromy.puncture_table(
                precision_bits=128, initial_steps=steps, check_infinity_directly=False
            )
            if steps != STEP_SCALES[-1]:
                return table, None
            spec = monodromy.LoopSpec(center=monodromy.INFINITY, initial_steps=steps)
            return table, monodromy.track_loop(spec, 128)

        def check(output) -> bool:
            table, infinity = output
            tables[steps] = {mark: images(p, 6) for mark, p in table.as_dict().items()}
            if infinity is not None:
                direct["infinity"] = images(infinity, 6)
            return False

        name = f"monodromy.loop_table.{steps}"
        return Op(name, f"loop table at {steps} steps", call, check, key=name)

    def check_pass(keys) -> list[Op]:
        ops = [
            Op(f"verification.check.{k}", f"check {k}", run_check(k), check_result, key=k)
            for k in keys
        ]
        ops[0].prepare = lambda: reset_check_caches(kumfib)
        return ops

    def finish_round():
        problems = oracle.loop_table_problems(tables, direct.get("infinity"))
        tables.clear()
        direct.clear()
        if problems:
            raise Incorrect("; ".join(problems))

    fast_checks = [k for k in PAPER_CHECKS if k not in SLOW_CHECKS]
    ops = []
    for steps in STEP_SCALES:
        ops += check_pass(fast_checks)
        ops.append(loop_table(steps))
    ops += check_pass(fast_checks)
    ops += check_pass(SLOW_CHECKS)
    return Workload(ops, finish_round)


# -- catalog ------------------------------------------------------------------------------

CATALOG_LIMIT = 8
CATALOG_MAX_CANDIDATES = 20_000
#: Every datum with n <= 5, every 8th with n = 6 and every 72nd with n = 8, in
#: catalog order, plus the degree-8 worked example: a round of about 4 s, so
#: that a run repeats each datum about five times.
CATALOG_STRIDE = {6: 8, 8: 72}


def catalog_sample() -> list[tuple]:
    """The sample, each degree spread evenly over the round.

    Catalog order would run all the millisecond data of small degree in
    the first second of a round; spread out, the median samples the whole
    run as the throughput does.  The order is fixed, so the datum that pays
    for building each conjugacy class is the same in every run.
    """
    groups: dict[int, list] = {}
    for datum in oracle.admissible_catalog(8):
        groups.setdefault(datum[0], []).append(datum)
    chosen = {
        n: [d for i, d in enumerate(group) if i % CATALOG_STRIDE.get(n, 1) == 0 or d == oracle.REGULAR_DATUM]
        for n, group in groups.items()
    }
    return sorted(
        (d for group in chosen.values() for d in group),
        key=lambda d: ((chosen[d[0]].index(d) + 0.5) / len(chosen[d[0]]), d),
    )


def check_catalog(kumfib) -> None:
    """The program's catalog equals the one rebuilt from the CY condition."""
    ours = oracle.admissible_catalog(8)
    theirs = [(b.n, b.x, b.y, b.z, b.r) for b in kumfib.cli.admissible_branch_data(8)]
    if len(ours) != 572 or sorted(theirs) != ours:
        raise Incorrect(f"catalog has {len(theirs)} data, rebuilt {len(ours)} (paper: 572)")


def catalog(kumfib, seed: int, workdir: Path) -> Workload:
    """A fixed sample of the n <= 8 catalog, stratified by degree.  The seed changes nothing."""
    hodge, cli, hurwitz = kumfib.hodge, kumfib.cli, kumfib.hurwitz
    capture = SearchCapture(hodge)
    sample = catalog_sample()

    def op(datum):
        n, x, y, z, r = datum
        b = hurwitz.BranchData(n=n, x=x, y=y, z=z, r=r)

        def call():
            reports = hodge.analyze_branch_data(
                b, limit=CATALOG_LIMIT, max_candidates=CATALOG_MAX_CANDIDATES
            )
            lines = [json.dumps(cli.report_record(rep), separators=(", ", ": ")) for rep in reports]
            return lines, list(capture.results)

        def check(output) -> bool:
            lines, results = output
            records = [json.loads(line) for line in lines]
            problems = branch_record_problems(records, datum, results)
            if datum == oracle.QUINTIC_DATUM:
                hodge_numbers = [(r["h11"], r["h21"], r["euler"]) for r in records]
                if hodge_numbers != [oracle.QUINTIC_HODGE]:
                    problems.append(f"quintic example gives {hodge_numbers}")
            if problems:
                raise Incorrect(f"{datum}: " + "; ".join(problems))
            return any(r["search_truncated"] for r in records)

        return Op("catalog.datum", f"n={n}", call, check, capture.results.clear)

    by_degree: dict[int, int] = {}
    for datum in sample:
        by_degree[datum[0]] = by_degree.get(datum[0], 0) + 1
    return Workload([op(d) for d in sample], notes={"data_by_degree": by_degree})


# -- reports --------------------------------------------------------------------------------

# Cover tuples (sigma over 1/256, infinity, 0, then extras) in cycle notation,
# grouped by degree.  All satisfy the CY condition; the y = 8 ones have no
# tabulated Hodge numbers and exit 3.
CY_COVERS = {
    2: [("(1 2)", "id", "(1 2)"), ("id", "id", "(1 2)", "(1 2)")],
    3: [
        ("(2 3)", "(1 2)", "(1 3 2)"),
        ("(2 3)", "(1 2)", "(1 3)", "(1 2)"),
        ("id", "(1 2)", "(1 2 3)", "(1 3)"),
    ],
    4: [
        ("(1 4 3 2)", "(1 2)(3 4)", "id", "(1 3)"),
        ("(2 4)", "(1 2)(3 4)", "(1 4)(2 3)", "(1 3)"),
        ("(3 4)", "(1 2)(3 4)", "(2 3)", "(1 2)", "(1 3)"),
    ],
    5: [
        ("id", "(1 2 3 4)", "(1 4 3 2 5)", "(1 5)"),
        ("(2 3)(4 5)", "(1 2 3 4)", "(1 5 4 2)"),
        ("(2 3)(4 5)", "(1 2 3 4)", "(1 5 4)", "(1 2)"),
        ("(3 5 4)", "(1 2 3 4)", "(1 5 3 2)"),
    ],
    6: [
        ("(3 5 6 4)", "(1 2 3 4)(5 6)", "(1 6 3)", "(1 2)"),
        ("(2 4 6)(3 5)", "(1 2 3 4)(5 6)", "(1 2)(3 6)(4 5)"),
        ("(2 4 3)(5 6)", "(1 2 3 4)(5 6)", "(2 5)", "(1 2)", "(1 5)"),
    ],
    8: [
        ("(4 5 8 7)", "(1 2 3 4)(5 6 7 8)", "(1 7 6 4 3)", "(1 2)"),
        ("(1 2)(3 4)(5 6)(7 8)", "(1 2 3 4)(5 6 7 8)", "(1 3 5 7)", "(1 5)"),
    ],
}
Y8_COVERS = [
    ("(6 8)", "(1 2 3 4 5 6 7 8)", "(1 6 5 4 3 2)(7 8)"),
    ("(3 8 6 5 4)", "(1 2 3 4 5 6 7 8)", "(1 3 2)(7 8)"),
]
NON_CY_COVERS = [  # (degree, cycles): a full cycle over infinity is not allowed
    (3, ("(1 2)", "(1 2 3)", "(1 3)")),
    (4, ("(1 2)", "(1 2 3 4)", "(1 4 3)")),
    (5, ("(1 2 3)", "(1 2 3 4 5)", "(1 5 4 2 3)")),
    (6, ("(1 2)(3 4)", "(1 2 3 4 5 6)", "(1 6 5 3)")),
    (7, ("(1 2)", "(1 2 3 4 5 6 7)", "(1 7 6 5 4 3)")),
]
REGULAR_COVER = ("(1 3)(2 4)(5 7)(6 8)", "(1 5 8 4)(2 6 7 3)", "(1 2)(3 5)(4 6)(7 8)")

#: Branch data past the search's degree bound; `report` crashes on them today.
OVER_DEGREE = [
    {"n": 10, "x": [10], "y": [5, 5], "z": [1] * 10, "r": 0},
    {"n": 11, "x": [11], "y": [4, 4, 3], "z": [1] * 11, "r": 0},
]
FAST_SEARCH_SPACE = 1000  # candidate combinations; such searches end in milliseconds
BLOCKS = 10


def _cover_doc(cover, degree: int, fmt: str | None) -> dict:
    doc = {
        "cover": {
            "degree": degree,
            "quarter256": cover[0],
            "infinity": cover[1],
            "zero": cover[2],
            "extras": list(cover[3:]),
        }
    }
    if fmt:
        doc["options"] = {"output_format": fmt}
    return doc


def _malformed(rng: random.Random) -> str:
    """One invalid document, as text; each kind must exit 2."""
    good = {"degree": 3, "quarter256": "(2 3)", "infinity": "(1 2)", "zero": "(1 3 2)"}
    kinds = [
        lambda: '{"cover": {"degree": 3, "quarter256": "(1 2)"',
        lambda: "[1, 2, 3]",
        lambda: json.dumps({"cover": good, "branch_data": {"n": 2, "x": [2], "y": [1, 1], "z": [2], "r": 0}}),
        lambda: json.dumps({"options": {"output_format": "jsonl"}}),
        lambda: json.dumps({"cover": good, "options": {rng.choice(["colour", "seed", "verbose"]): 1}}),
        lambda: json.dumps({"cover": good, "options": {"output_format": rng.choice(["xml", "csv", ""])}}),
        lambda: json.dumps({"cover": dict(good, zero="(1 3 2")}),
        lambda: json.dumps({"cover": {"degree": 3, "quarter256": "(1 2)", "infinity": "(1 2)", "zero": "(1 2 3)"}}),
        lambda: json.dumps({"cover": {"degree": 4, "quarter256": "(1 2)", "infinity": "(1 2)", "zero": "id"}}),
        lambda: json.dumps({"branch_data": {"n": 5, "x": [rng.randint(1, 4)], "y": [4, 1], "z": [1] * 5, "r": 1}}),
        lambda: json.dumps({"branch_data": {"n": "5", "x": [5], "y": [4, 1], "z": [1] * 5, "r": 1}}),
        lambda: json.dumps({"cover": {"degree": 3, "zero": f"(1 {rng.randint(4, 9)})"}}),
    ]
    return rng.choice(kinds)()


@dataclass
class Document:
    kind: str  # cover, branch, malformed, over-degree
    text: str
    data: tuple | None = None
    cover: tuple | None = None  # images, for cover documents
    hodge: tuple | None = None  # the paper's (h11, h21, e) for the worked examples


def report_documents(seed: int) -> list[Document]:
    """One round of documents: BLOCKS blocks of 21, then the fast branch data.

    Each block holds two CY covers of each degree 2, 3, 4, 5, 6 and 8, one
    y = 8 cover, one non-CY cover, the regular deck cover, the quintic
    datum, four malformed documents and one datum with n >= 10.  After the
    blocks come the 55 branch data with n <= 5 whose search space is at most
    FAST_SEARCH_SPACE, once each.  Which tuples and data appear is fixed, so
    the cost of a round is the same for every seed; the seed relabels every
    cover by a conjugation, picks the output formats and the malformed
    documents, and shuffles the round.
    """
    rng = random.Random(seed)

    def relabelled(degree, cycles, hodge=None) -> Document:
        rho = list(range(1, degree + 1))
        rng.shuffle(rho)
        perms = [oracle.conjugate(oracle.from_cycles(degree, c), tuple(rho)) for c in cycles]
        problems = oracle.cover_problems(perms)
        if problems:
            raise Incorrect(f"pool cover {cycles}: {problems}")
        fmt = rng.choice([None, "both", "jsonl"])
        text = json.dumps(_cover_doc([oracle.to_cycles(p) for p in perms], degree, fmt))
        return Document("cover", text, oracle.branch_data_of(perms), tuple(perms), hodge)

    def branch(datum, hodge=None) -> Document:
        n, x, y, z, r = datum
        body = {"n": n, "x": list(x), "y": list(y), "z": list(z), "r": r}
        return Document("branch", json.dumps({"branch_data": body}), datum, hodge=hodge)

    def nth(pool, i):
        return pool[i % len(pool)]

    docs = []
    for block in range(BLOCKS):
        for degree in (2, 3, 4, 5, 6, 8):
            for j in range(2):
                docs.append(relabelled(degree, nth(CY_COVERS[degree], 2 * block + j)))
        docs.append(relabelled(8, nth(Y8_COVERS, block)))
        docs.append(relabelled(*nth(NON_CY_COVERS, block)))
        docs.append(relabelled(8, REGULAR_COVER, hodge=oracle.REGULAR_HODGE))
        docs.append(branch(oracle.QUINTIC_DATUM, hodge=oracle.QUINTIC_HODGE))
        docs += [Document("malformed", _malformed(rng)) for _ in range(4)]
        docs.append(Document("over-degree", json.dumps({"branch_data": nth(OVER_DEGREE, block)})))
    docs += [
        branch(d)
        for d in oracle.admissible_catalog(5)
        if oracle.candidate_space(d[0], d[3], d[4]) <= FAST_SEARCH_SPACE and d != oracle.QUINTIC_DATUM
    ]
    rng.shuffle(docs)
    return docs


def write_documents(docs: list[Document], workdir: Path) -> list[Path]:
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, doc in enumerate(docs):
        path = workdir / f"doc{i:04d}.json"
        path.write_text(doc.text, encoding="utf-8")
        paths.append(path)
    return paths


def reports(kumfib, seed: int, workdir: Path) -> Workload:
    """`kumfib report <doc>` in-process on a seeded mix of documents."""
    cli = kumfib.cli
    capture = SearchCapture(kumfib.hodge)
    docs = report_documents(seed)
    paths = write_documents(docs, workdir)

    def op(doc: Document, path: Path) -> Op:
        argv = ["report", str(path)]

        def prepare():
            capture.results.clear()
            reset_caches(kumfib)  # each document is one CLI process

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue(), list(capture.results)

        def check(output) -> bool:
            code, out, err, results = output
            where = f"{doc.kind} document {doc.text[:80]}"
            if "Traceback" in out or "Traceback" in err:
                raise Incorrect(f"{where}: traceback in output")
            if doc.kind == "malformed":
                if code != 2 or out or not err:
                    raise Incorrect(f"{where}: exit {code}, stdout {out[:60]!r}, expected exit 2")
                return False
            if doc.kind == "over-degree":
                if code not in (2, 3):
                    raise Incorrect(f"{where}: exit {code}, expected 2 or 3")
                return False
            records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
            if doc.kind == "cover":
                problems = [] if len(records) == 1 else [f"{len(records)} records"]
                if records:
                    outcome = oracle.fixed_curve_pullback(doc.cover)
                    problems += oracle.record_problems(records[0], doc.data, outcome)
                realized = True
            else:
                problems = branch_record_problems(records, doc.data, results)
                realized = any(r.covers for r in results)
            # exit 3: CY data whose Hodge numbers are not tabulated (y = 8) or not realized
            unsupported = oracle.cy_condition(*doc.data) and (len(doc.data[2]) != 2 or not realized)
            expected_code = 3 if unsupported else 0
            if code != expected_code:
                problems.append(f"exit {code}, expected {expected_code}")
            if doc.hodge is not None:
                got = [(r["h11"], r["h21"], r["euler"]) for r in records]
                if got != [doc.hodge]:
                    problems.append(f"worked example gives {got}, paper has {doc.hodge}")
            if problems:
                raise Incorrect(f"{where}: " + "; ".join(problems))
            return False

        return Op("reports.document", doc.kind, call, check, prepare)

    counts: dict[str, int] = {}
    for doc in docs:
        counts[doc.kind] = counts.get(doc.kind, 0) + 1
    return Workload([op(d, p) for d, p in zip(docs, paths)], notes={"documents_by_kind": counts})


WORKLOADS = {"paper": paper, "catalog": catalog, "reports": reports}


def generate(kumfib, name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOADS[name](kumfib, seed, workdir)

