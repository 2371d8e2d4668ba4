"""Command-line interface.

Subcommands:

  report <file>         analyze one cover document (JSON), print text + JSONL
  enumerate             catalog admissible branch data up to a degree bound
  monodromy             run the loop tracker and print the puncture table
  fibers                print the singular-fiber reference tables
  verify-paper          re-run every pinned reference check, one line per check;
                        a failing check also prints its expected and actual values,
                        only the differing labels of a labelled result

Exit codes: 0 success, 1 internal check failure or fault, 2 invalid input,
3 requested quantity unsupported (outside the tabulated cases).  A cover
document is refused (exit 2, one `invalid cover:` line) when it is not
well formed, which HurwitzCover checks at construction, or not connected,
which hodge.analyze_cover checks.

Calabi-Yau branch data (infinity profile in hodge.CY_INFINITY_PROFILES) has
degree at most hurwitz.MAX_SEARCH_DEGREE = 8: `report` refuses branch data
or a cover above it with exit 3 (a cover before any of its permutations is
built), and `enumerate --max-degree` above it with exit 2.  The search
limits (`search_limit`/`max_candidates` in a branch-data document,
`--limit`/`--max-candidates` for `enumerate`) below 1 exit 2.  `monodromy`
and `fibers` take no options: the loop table is tracked at the library's
defaults, and the fiber table runs over the ramification indices up to the
degree bound.

Input documents are JSON objects carrying either bare branch data

    {"branch_data": {"n": 5, "x": [5], "y": [1, 4], "z": [1, 1, 1, 1, 1], "r": 1}}

or an explicit monodromy tuple in cycle notation, each a product of disjoint
cycles (whitespace/commas both fine)

    {"cover": {"degree": 4,
               "quarter256": "(1 3)", "infinity": "(1 4 3 2)", "zero": "(1 2)(3 4)",
               "extras": []}}

with optional {"options": ...}.  Both kinds take "output_format": "text" |
"jsonl" | "both".  Only branch data takes the search limits "search_limit"
and "max_candidates" (ints), because only Calabi-Yau branch data is ever
searched; a cover is analyzed as given.  Every object of a document is
checked for unknown fields, so a misspelt field is refused (exit 2, one
`invalid document: <path>: unknown fields [...]` line), never ignored.
Structured output is line-delimited JSON with a stable field order; all
values are integers, booleans or strings, so output is byte-identical across
runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import hodge, hurwitz, monodromy, verification
from .hurwitz import BranchData, HurwitzCover
from .permutations import Permutation, PermutationError

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_INVALID_INPUT = 2
EXIT_UNSUPPORTED = 3


class DocumentError(ValueError):
    """Schema violation in an input document, with field context."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")


# -- document parsing ------------------------------------------------------------


def _expect_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(path, f"expected an integer, got {value!r}")
    return value


def _expect_partition(value, path: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise DocumentError(path, f"expected a non-empty list of integers, got {value!r}")
    return tuple(_expect_int(v, f"{path}[{i}]") for i, v in enumerate(value))


def _object(value, path: str, known) -> dict:
    """value, checked to be a JSON object with no field outside known."""
    if not isinstance(value, dict):
        raise DocumentError(path, "document must be a JSON object" if path == "$" else "expected an object")
    unknown = value.keys() - known
    if unknown:
        raise DocumentError(path, f"unknown fields {sorted(unknown)}")
    return value


def _within_cy_degree(n: int, kind: str) -> None:
    if n > hurwitz.MAX_SEARCH_DEGREE:
        raise hodge.UnsupportedError(
            f"{kind}: degree n = {n} exceeds {hurwitz.MAX_SEARCH_DEGREE}, the largest Calabi-Yau degree"
        )


def parse_branch_data(obj, path: str = "branch_data") -> BranchData:
    obj = _object(obj, path, ("n", "x", "y", "z", "r"))
    try:
        data = BranchData(
            n=_expect_int(obj.get("n"), f"{path}.n"),
            x=_expect_partition(obj.get("x"), f"{path}.x"),
            y=_expect_partition(obj.get("y"), f"{path}.y"),
            z=_expect_partition(obj.get("z"), f"{path}.z"),
            r=_expect_int(obj.get("r", 0), f"{path}.r"),
        )
    except hurwitz.HurwitzError as exc:
        raise DocumentError(path, str(exc)) from None
    _within_cy_degree(data.n, "branch data")
    return data


def parse_cover(obj, path: str = "cover") -> HurwitzCover:
    obj = _object(obj, path, ("degree", *hurwitz.SPECIAL_MARKS, "extras"))
    degree = _expect_int(obj.get("degree"), f"{path}.degree")
    _within_cy_degree(degree, "cover")  # before any permutation of that degree is built

    def perm(field: str, text) -> Permutation:
        if text is None:
            return Permutation.identity(degree)
        if not isinstance(text, str):
            raise DocumentError(f"{path}.{field}", f"expected a cycle string, got {text!r}")
        try:
            return Permutation.from_cycle_string(degree, text)
        except PermutationError as exc:
            raise DocumentError(f"{path}.{field}", str(exc)) from None

    extras_obj = obj.get("extras", [])
    if not isinstance(extras_obj, list):
        raise DocumentError(f"{path}.extras", "expected a list of cycle strings")
    extras = tuple(perm(f"extras[{i}]", text) for i, text in enumerate(extras_obj))
    slots = {mark: perm(mark, obj.get(mark)) for mark in hurwitz.SPECIAL_MARKS}
    try:
        return HurwitzCover(degree, **slots, extras=extras)
    except hurwitz.HurwitzError as exc:  # the input's refusal, not a fault inside the analysis
        raise hurwitz.InvalidCoverError(str(exc)) from None


def load_document(path: str) -> tuple[BranchData | HurwitzCover, dict]:
    """The document's subject and its options, with their defaults filled in."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise DocumentError(path, f"cannot read: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DocumentError(path, f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, an over-long integer, deep nesting
        raise DocumentError(path, f"invalid JSON: {exc}") from None
    doc = _object(doc, "$", ("branch_data", "cover", "options"))
    if ("branch_data" in doc) == ("cover" in doc):
        raise DocumentError("$", "provide exactly one of 'branch_data' or 'cover'")
    is_cover = "cover" in doc
    # a cover is not searched, so only branch data takes the search limits
    defaults = {"output_format": "both"}
    if not is_cover:
        defaults.update(search_limit=hurwitz.SEARCH_LIMIT, max_candidates=hurwitz.MAX_CANDIDATES)
    options = {**defaults, **_object(doc.get("options", {}), "options", defaults)}
    for field, value in options.items():
        if field != "output_format" and _expect_int(value, f"options.{field}") < 1:
            raise DocumentError(f"options.{field}", f"must be at least 1, got {value}")
    if options["output_format"] not in ("text", "jsonl", "both"):
        raise DocumentError("options.output_format", f"unknown format {options['output_format']!r}")
    if is_cover:
        return parse_cover(doc["cover"]), options
    return parse_branch_data(doc["branch_data"]), options


# -- rendering -------------------------------------------------------------------


def _inventory_dict(inv: hodge.FiberInventory) -> dict:
    return {
        "over_zero": [
            {"x": x, "components": count} for x, count in inv.zero_fibers
        ],
        "over_infinity": [
            {
                "y": y,
                "components": count,
                "multiplicities": [list(pair) for pair in mults] if mults else None,
            }
            for y, count, mults in inv.infinity_fibers
        ],
        "over_quarter256": [
            {"z": z, "terminal_points": count, "type": f"cA_{z - 1}" if count else None}
            for z, count in inv.quarter_points
        ],
    }


def report_record(r: hodge.CYReport) -> dict:
    return {
        "branch_data": {
            "n": r.branch.n,
            "x": list(r.branch.x),
            "y": list(r.branch.y),
            "z": list(r.branch.z),
            "r": r.branch.r,
        },
        "cy": r.cy,
        "guaranteed_smooth": r.guaranteed_smooth,
        "terminal_singularities": r.inventory.terminal_singularity_count(),
        "fibers": _inventory_dict(r.inventory),
        "fixed_curve": None
        if r.s is None
        else {"components": r.s, "genera": list(r.genera), "p_g": r.p_g},
        "c": list(r.c) if r.c else None,
        "h11": r.h11,
        "h21": r.h21,
        "euler": r.euler,
        "unsupported": r.unsupported,
        "ambiguous": r.ambiguous,
        "search_truncated": r.search_truncated,
    }


def render_report_text(r: hodge.CYReport) -> str:
    b = r.branch
    lines = [
        f"branch data       (k,l,m,n,r) = ({b.k},{b.l},{b.m},{b.n},{b.r})   "
        f"x={list(b.x)} y={list(b.y)} z={list(b.z)}",
        f"trivial canonical {'yes' if r.cy else 'no'}",
        f"smoothness        {'guaranteed (unramified over 1/256)' if r.guaranteed_smooth else 'not guaranteed by the criterion'}",
        f"terminal points   {r.inventory.terminal_singularity_count()}"
        + (
            "  (" + ", ".join(f"cA_{z - 1} x{c}" for z, c in r.inventory.quarter_points if c) + ")"
            if r.inventory.terminal_singularity_count()
            else ""
        ),
    ]
    for x, count in r.inventory.zero_fibers:
        lines.append(f"fiber over 0      x={x}: {count} components")
    for y, count, _ in r.inventory.infinity_fibers:
        lines.append(
            f"fiber over inf    y={y}: "
            + (f"{count} components" if count is not None else "no tabulated resolution")
        )
    if r.s is not None:
        lines.append(
            f"fixed curve       {r.s} components, genera {list(r.genera)}, p_g = {r.p_g}"
        )
    if r.h11 is not None:
        lines.append(f"hodge numbers     h11 = {r.h11}, h21 = {r.h21}, e = {r.euler}")
    if r.unsupported:
        lines.append(f"unsupported       {r.unsupported}")
    if r.ambiguous:
        lines.append("ambiguous         multiple outcomes realize this branch data")
    if r.search_truncated:
        lines.append("note              tuple search truncated; outcomes may be missing")
    return "\n".join(lines)


def _emit(reports: list[hodge.CYReport], fmt: str) -> None:
    if fmt in ("text", "both"):
        for i, r in enumerate(reports):
            if len(reports) > 1:
                sys.stdout.write(f"--- outcome {i + 1} of {len(reports)} ---\n")
            sys.stdout.write(render_report_text(r) + "\n")
    if fmt in ("jsonl", "both"):
        for r in reports:
            sys.stdout.write(json.dumps(report_record(r), separators=(", ", ": ")) + "\n")


# -- subcommands ------------------------------------------------------------------


def cmd_report(args) -> int:
    try:
        subject, options = load_document(args.file)
        if isinstance(subject, HurwitzCover):
            reports = [hodge.analyze_cover(subject)]
        else:
            reports = hodge.analyze_branch_data(
                subject, limit=options["search_limit"], max_candidates=options["max_candidates"]
            )
    except DocumentError as exc:
        sys.stderr.write(f"invalid document: {exc}\n")
        return EXIT_INVALID_INPUT
    except hurwitz.InvalidCoverError as exc:
        sys.stderr.write(f"invalid cover: {exc}\n")
        return EXIT_INVALID_INPUT
    except hodge.UnsupportedError as exc:
        sys.stderr.write(f"unsupported {exc}\n")
        return EXIT_UNSUPPORTED
    _emit(reports, options["output_format"])
    if any(r.unsupported and r.cy for r in reports):
        return EXIT_UNSUPPORTED
    return EXIT_OK


def admissible_branch_data(max_degree: int) -> list[BranchData]:
    """All branch data with n <= max_degree passing the Calabi-Yau condition:
    y from hodge.CY_INFINITY_PROFILES, r solved from k + l + m - n - r = 2."""
    out = []
    for y in hodge.CY_INFINITY_PROFILES:
        n = sum(y)
        if n > max_degree:
            continue
        parts = list(hurwitz.partitions(n))
        for x in parts:
            for z in parts:
                r = len(x) + len(y) + len(z) - n - 2
                if r >= 0:
                    out.append(BranchData(n=n, x=x, y=y, z=z, r=r))
    out.sort(key=lambda b: (b.n, b.x, b.y, b.z, b.r))
    return out


def cmd_enumerate(args) -> int:
    bound = hurwitz.MAX_SEARCH_DEGREE
    if not 1 <= args.max_degree <= bound:
        sys.stderr.write(f"enumerate: --max-degree must be between 1 and {bound}\n")
        return EXIT_INVALID_INPUT
    for flag, value in (("--limit", args.limit), ("--max-candidates", args.max_candidates)):
        if value < 1:
            sys.stderr.write(f"enumerate: {flag} must be at least 1, got {value}\n")
            return EXIT_INVALID_INPUT
    catalog = admissible_branch_data(args.max_degree)
    for b in catalog:
        _emit(hodge.analyze_branch_data(b, limit=args.limit, max_candidates=args.max_candidates), "jsonl")
    sys.stderr.write(f"enumerate: {len(catalog)} admissible branch data\n")
    return EXIT_OK


def cmd_monodromy(args) -> int:
    try:
        table = monodromy.puncture_table()
    except monodromy.MonodromyError as exc:
        sys.stderr.write(f"monodromy failed: {exc}\n")
        return EXIT_CHECK_FAILURE
    rho = verification.find_relabeling(table)
    print(f"base point        lambda = {monodromy.BASE_POINT}, precision {monodromy.BASE_PRECISION_BITS} bits")
    for mark, perm in table.as_dict().items():
        print(f"loop around {mark:<11} {perm.cycle_string():<18} cycle type {list(perm.cycle_type())}")
    product = table.around_zero * table.around_infinity * table.around_quarter256
    print(f"product (0 after inf after 1/256): {product.cycle_string()}")
    if rho is None:
        print("reference match   FAILED: no relabeling reproduces the pinned table")
        return EXIT_CHECK_FAILURE
    print(f"reference match   via relabeling {rho.cycle_string()}")
    return EXIT_OK


def cmd_fibers(args) -> int:
    print("fiber over 0 with ramification x: x^2+1 components (x odd), x^2+2 (x even)")
    for x in range(1, hurwitz.MAX_SEARCH_DEGREE + 1):
        print(f"  x = {x:>2}: {hodge.components_over_zero(x):>4} components")
    print("fiber over infinity with ramification y:")
    for y in (1, 2, 4, 8):
        mults = ", ".join(
            f"{count} of multiplicity {mult}"
            for mult, count in hodge.MULTIPLICITIES_BY_Y[y]
        )
        print(f"  y = {y}: {hodge.COMPONENTS_BY_Y[y]} components ({mults})")
    print("point over 1/256 with ramification z:")
    print("  z = 1: no singular point; z > 1: two isolated terminal points of type cA_{z-1}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.only:
        unknown = set(args.only) - set(verification.check_keys())
        if unknown:
            sys.stderr.write(
                f"unknown check keys {sorted(unknown)}; available: "
                f"{', '.join(verification.check_keys())}\n"
            )
            return EXIT_INVALID_INPUT
    import sympy  # noqa: F401  loaded before the checks, so no check is charged the import

    results = verification.run_all(args.only or None)
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.key:<24} {result.description} [{result.seconds:.2f}s]")
        if not result.passed:
            expected, actual = result.expected, result.actual
            if isinstance(expected, dict) and isinstance(actual, dict) and expected.keys() == actual.keys():
                differing = [k for k in expected if expected[k] != actual[k]]
                expected, actual = ({k: values[k] for k in differing} for values in (expected, actual))
            print(f"      expected: {expected}")
            print(f"      actual:   {actual}")
            failures += 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILURE


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="kumfib",
        description="Kummer-fibred Calabi-Yau threefold calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="analyze a cover document")
    p_report.add_argument("file", help="JSON document (see module docstring)")
    p_report.set_defaults(fn=cmd_report)

    p_enum = sub.add_parser("enumerate", help="catalog admissible branch data")
    p_enum.add_argument("--max-degree", type=int, required=True)
    p_enum.add_argument("--limit", type=int, default=8, help="tuples kept per datum")
    p_enum.add_argument(
        "--max-candidates", type=int, default=20_000, help="search budget per datum"
    )
    p_enum.set_defaults(fn=cmd_enumerate)

    sub.add_parser("monodromy", help="track the six roots around the punctures").set_defaults(
        fn=cmd_monodromy
    )
    sub.add_parser("fibers", help="print the singular-fiber reference tables").set_defaults(
        fn=cmd_fibers
    )

    p_verify = sub.add_parser(
        "verify-paper", help="re-run every pinned reference check"
    )
    p_verify.add_argument(
        "--only", nargs="*", metavar="KEY", help="restrict to the named checks"
    )
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except hodge.InternalError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
