"""Command-line interface: documents, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kumfib
from kumfib import cli, family, hodge, hurwitz
from kumfib.permutations import Permutation

QUINTIC_DOC = {
    "branch_data": {"n": 5, "x": [5], "y": [1, 4], "z": [1, 1, 1, 1, 1], "r": 1},
    "options": {"output_format": "jsonl"},
}

REGULAR_COVER_DOC = {
    "cover": {
        "degree": 4,
        "quarter256": "(1 3)",
        "infinity": "(1 4 3 2)",
        "zero": "(1 2)(3 4)",
    },
    "options": {"output_format": "jsonl"},
}

# non-CY branch data whose tuple searches took seconds: y = (1^8) has all of
# S_8 as centralizer, and r = 9 gives 15^9 extra transpositions
NON_CY_DOCS = [
    {
        "branch_data": {"n": 8, "x": [7, 1], "y": [1] * 8, "z": [6, 2], "r": 2},
        "options": {"output_format": "jsonl", "max_candidates": 20000},
    },
    {
        "branch_data": {"n": 6, "x": [2, 1, 1, 1, 1], "y": [1] * 6, "z": [1] * 6, "r": 9},
        "options": {"output_format": "jsonl"},
    },
]


def degree_eight_cover_document():
    """The degree-8 regular cover of the worked example as a cover document."""
    cover = hurwitz.regular_deck_cover()
    cycles = {mark: p.cycle_string() for mark, p in zip(cover.marks, cover.permutations)}
    return {"cover": {"degree": 8, **cycles}, "options": {"output_format": "jsonl"}}


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReport:
    def test_quintic_document(self, tmp_path, capsys):
        code, out, _ = run(["report", write_doc(tmp_path, QUINTIC_DOC)], capsys)
        assert code == 0
        record = json.loads(out.strip().splitlines()[-1])
        assert record["h11"] == 59 and record["h21"] == 3 and record["euler"] == 112
        assert record["cy"] is True
        assert record["fixed_curve"] == {"components": 3, "genera": [0, 0, 2], "p_g": 2}

    def test_explicit_cover_document(self, tmp_path, capsys):
        code, out, _ = run(["report", write_doc(tmp_path, REGULAR_COVER_DOC)], capsys)
        # the four-fold fixed-curve component datum: l = 1 is not Calabi-Yau
        assert code == 0
        record = json.loads(out.strip().splitlines()[-1])
        assert record["cy"] is False and record["h11"] is None

    def test_text_format(self, tmp_path, capsys):
        doc = dict(QUINTIC_DOC, options={"output_format": "text"})
        code, out, _ = run(["report", write_doc(tmp_path, doc)], capsys)
        assert code == 0
        assert "h11 = 59" in out and "h21 = 3" in out

    def test_product_violation_exits_2(self, tmp_path, capsys):
        doc = {"cover": {"degree": 2, "zero": "(1 2)"}}
        code, out, err = run(["report", write_doc(tmp_path, doc)], capsys)
        assert (code, out) == (2, "")
        assert err == "invalid cover: monodromy product is (1 2), not the identity\n"

    @pytest.mark.parametrize(
        "cover, line",
        [
            (
                {"degree": 4, "quarter256": "(1 2)", "infinity": "(1 2)", "zero": "id"},
                "invalid cover: monodromy group is not transitive (cover is disconnected)\n",
            ),
            ({"degree": 0}, "invalid cover: degree must be positive, got 0\n"),
        ],
        ids=["disconnected", "degree0"],
    )
    def test_refused_cover_exits_2(self, tmp_path, capsys, cover, line):
        code, out, err = run(["report", write_doc(tmp_path, {"cover": cover})], capsys)
        assert (code, out, err) == (2, "", line)

    def test_overlapping_cycles_exit_2(self, tmp_path, capsys):
        # read as (1 2) the cover would be a valid degree-2 cover with h11 = 58
        doc = {"cover": {"degree": 2, "quarter256": "(1 2)(1 2)", "infinity": "id", "zero": "(1 2)"}}
        code, out, err = run(["report", write_doc(tmp_path, doc)], capsys)
        assert (code, out) == (2, "")
        assert err == "invalid document: cover.quarter256: point 1 appears twice; cycles must be disjoint\n"

    def test_one_connectivity_test_per_report(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = hurwitz.is_transitive
        monkeypatch.setattr(hurwitz, "is_transitive", lambda *a: calls.append(a) or real(*a))
        code, _, _ = run(["report", write_doc(tmp_path, degree_eight_cover_document())], capsys)
        assert code == 0 and len(calls) == 1

    def test_internal_fault_exits_1(self, tmp_path, capsys, monkeypatch):
        # an m_odd that breaks h21's unramified identity is a fault, not a refusal
        monkeypatch.setattr(hurwitz.BranchData, "m_odd", property(lambda b: b.n - 2))
        code, out, err = run(["report", write_doc(tmp_path, QUINTIC_DOC)], capsys)
        assert code == 1 and out == ""
        assert err == "internal error: internal inconsistency: unramified case must equal r + p_g\n"

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(["report", str(path)], capsys)
        assert code == 2 and "invalid" in err

    def test_schema_violation_has_field_context(self, tmp_path, capsys):
        doc = {"branch_data": {"n": 5, "x": [5], "y": [1, 4], "z": "nope", "r": 1}}
        code, _, err = run(["report", write_doc(tmp_path, doc)], capsys)
        assert code == 2 and "branch_data.z" in err

    def test_both_inputs_rejected(self, tmp_path, capsys):
        doc = dict(QUINTIC_DOC)
        doc["cover"] = REGULAR_COVER_DOC["cover"]
        code, _, err = run(["report", write_doc(tmp_path, doc)], capsys)
        assert code == 2

    def test_unsupported_exit_code(self, tmp_path, capsys):
        # l = 1 with y = [8]: Calabi-Yau but no tabulated Hodge formulas
        doc = {
            "branch_data": {"n": 8, "x": [1, 1, 2, 2, 2], "y": [8], "z": [2, 2, 2, 2], "r": 0},
            "options": {"output_format": "jsonl", "search_limit": 2, "max_candidates": 50000},
        }
        code, out, _ = run(["report", write_doc(tmp_path, doc)], capsys)
        assert code == 3
        record = json.loads(out.strip().splitlines()[0])
        assert record["cy"] is True and record["h11"] is None

    def test_determinism(self, tmp_path, capsys):
        path = write_doc(tmp_path, QUINTIC_DOC)
        _, out1, _ = run(["report", path], capsys)
        _, out2, _ = run(["report", path], capsys)
        assert out1 == out2

    def test_degree_eight_regular_cover_document(self, tmp_path, capsys):
        code, out, _ = run(["report", write_doc(tmp_path, degree_eight_cover_document())], capsys)
        assert code == 0
        record = json.loads(out.strip())
        assert (record["h11"], record["h21"], record["euler"]) == (40, 0, 80)
        assert record["fixed_curve"]["components"] == 8

    def test_unknown_top_level_field_rejected(self, tmp_path, capsys):
        # a misspelt "options" would otherwise be dropped and its format ignored
        doc = {"branch_data": QUINTIC_DOC["branch_data"], "optoins": {"output_format": "jsonl"}}
        code, out, err = run(["report", write_doc(tmp_path, doc)], capsys)
        assert (code, out, err) == (2, "", "invalid document: $: unknown fields ['optoins']\n")

    def test_unknown_option_rejected(self, tmp_path, capsys):
        doc = dict(QUINTIC_DOC, options={"formt": "jsonl"})
        code, _, err = run(["report", write_doc(tmp_path, doc)], capsys)
        assert code == 2 and "formt" in err

    def test_ignored_tracker_options_rejected(self, tmp_path, capsys):
        # report never tracks loops, so tracker settings are unknown options
        for field in ("precision_bits", "step_scale"):
            doc = dict(QUINTIC_DOC, options={"output_format": "jsonl", field: 16})
            code, out, err = run(["report", write_doc(tmp_path, doc)], capsys)
            assert code == 2 and field in err and out == ""

    @pytest.mark.parametrize(
        "data",
        [
            {"n": 9, "x": [9], "y": [5, 4], "z": [2, 1, 1, 1, 1, 1, 1, 1], "r": 0},
            {"n": 10, "x": [10], "y": [5, 5], "z": [1] * 10, "r": 0},
        ],
        ids=["n9", "n10"],
    )
    def test_degree_beyond_search_bound_exits_3(self, tmp_path, capsys, data):
        doc = {"branch_data": data}
        code, out, err = run(["report", write_doc(tmp_path, doc)], capsys)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and f"n = {data['n']}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("degree", [9, 10**9])
    def test_cover_degree_beyond_the_bound_exits_3(self, tmp_path, capsys, degree):
        # refused before any permutation of that degree is allocated
        doc = {"cover": {"degree": degree, "zero": "(1 2)", "infinity": "(1 2)"}}
        code, out, err = run(["report", write_doc(tmp_path, doc)], capsys)
        assert (code, out) == (3, "")
        assert err == (
            f"unsupported cover: degree n = {degree} exceeds 8, the largest Calabi-Yau degree\n"
        )

    @pytest.mark.parametrize(
        "raw",
        [b"\xff\xfe{", b'{"cover": {"degree": ' + b"9" * 5000 + b"}}", b"[" * 100_000],
        ids=["not-utf8", "long-integer", "deep-nesting"],
    )
    def test_undecodable_document_exits_2(self, tmp_path, capsys, raw):
        path = tmp_path / "raw.json"
        path.write_bytes(raw)
        code, out, err = run(["report", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"invalid document: {path}: invalid JSON: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "field, value",
        [("search_limit", 0), ("search_limit", -2), ("max_candidates", 0), ("max_candidates", -3)],
    )
    def test_bad_search_limits_rejected(self, tmp_path, capsys, field, value):
        doc = dict(QUINTIC_DOC, options={"output_format": "jsonl", field: value})
        code, out, err = run(["report", write_doc(tmp_path, doc)], capsys)
        assert code == 2 and out == ""
        assert err == f"invalid document: options.{field}: must be at least 1, got {value}\n"

    @pytest.mark.parametrize("field, value", [("search_limit", 3), ("max_candidates", 7)])
    def test_search_options_on_a_cover_rejected(self, tmp_path, capsys, field, value):
        # a cover is not searched, so a search limit on it would be ignored
        doc = dict(REGULAR_COVER_DOC, options={"output_format": "jsonl", field: value})
        code, out, err = run(["report", write_doc(tmp_path, doc)], capsys)
        assert (code, out) == (2, "")
        assert err == f"invalid document: options: unknown fields ['{field}']\n"

    @pytest.mark.parametrize("doc", NON_CY_DOCS, ids=["y1x8", "n6r9"])
    def test_non_cy_branch_data_answered_without_a_search(self, tmp_path, capsys, doc):
        code, out, err = run(["report", write_doc(tmp_path, doc)], capsys)
        assert (code, err) == (0, "")
        [line] = out.splitlines()
        record = json.loads(line)
        assert record["cy"] is False and record["fixed_curve"] is None
        assert record["unsupported"] == "canonical sheaf is not trivial for this data"

    def test_repeated_in_process_calls_agree(self, tmp_path, capsys):
        # the parser is shared between calls; errors must not leak between them
        good = write_doc(tmp_path, QUINTIC_DOC)
        first = run(["report", good], capsys)
        assert run(["report", str(tmp_path / "missing.json")], capsys)[0] == 2
        assert run(["report", good], capsys) == first

    def test_unknown_verify_key_rejected(self, capsys):
        code, _, err = run(["verify-paper", "--only", "towr"], capsys)
        assert code == 2 and "towr" in err


class TestEnumerate:
    def test_degree_one_empty(self, capsys):
        code, out, err = run(["enumerate", "--max-degree", "1"], capsys)
        assert code == 0
        assert out.strip() == ""
        assert "0 admissible" in err

    def test_degree_five_contains_quintic(self, capsys):
        # the one enumerate run with its searches: every datum gets a record
        code, out, err = run(["enumerate", "--max-degree", "5"], capsys)
        assert (code, err) == (0, "enumerate: 68 admissible branch data\n")
        rows = [json.loads(line) for line in out.splitlines()]
        assert {hurwitz.BranchData(**row["branch_data"]) for row in rows} == set(
            cli.admissible_branch_data(5)
        )
        quintic = {"n": 5, "x": [5], "y": [4, 1], "z": [1, 1, 1, 1, 1], "r": 1}
        [row] = [row for row in rows if row["branch_data"] == quintic]
        assert (row["h11"], row["h21"], row["euler"]) == (59, 3, 112)

    def test_monotone_in_degree(self):
        assert set(cli.admissible_branch_data(4)) <= set(cli.admissible_branch_data(5))

    def test_degree_eight_contains_regular_datum(self):
        regular = hurwitz.BranchData(n=8, x=(2, 2, 2, 2), y=(4, 4), z=(2, 2, 2, 2), r=0)
        assert regular in cli.admissible_branch_data(8)

    @pytest.mark.parametrize("bound", [0, 9, 40])
    def test_bad_bound_rejected(self, capsys, bound):
        code, out, err = run(["enumerate", "--max-degree", str(bound)], capsys)
        assert code == 2 and out == ""
        assert "between 1 and 8" in err

    @pytest.mark.parametrize(
        "args, line",
        [
            (["--limit", "0"], "--limit must be at least 1, got 0"),
            (["--limit", "-1", "--max-candidates", "-5"], "--limit must be at least 1, got -1"),
            (["--max-candidates", "-5"], "--max-candidates must be at least 1, got -5"),
            (["--max-candidates", "0"], "--max-candidates must be at least 1, got 0"),
        ],
    )
    def test_bad_search_limits_rejected(self, capsys, args, line):
        code, out, err = run(["enumerate", "--max-degree", "3", *args], capsys)
        assert code == 2 and out == ""
        assert err == f"enumerate: {line}\n"

    def test_catalog_at_the_bound(self):
        catalog = cli.admissible_branch_data(hurwitz.MAX_SEARCH_DEGREE)
        assert len(catalog) == 572
        assert max(b.n for b in catalog) == 8
        # every partition triple and every r that Riemann-Hurwitz allows,
        # one degree beyond the bound, filtered by the CY condition
        brute = []
        for n in range(1, hurwitz.MAX_SEARCH_DEGREE + 2):
            parts = list(hurwitz.partitions(n))
            for x in parts:
                for y in parts:
                    for z in parts:
                        r = 2 * n - 2 - sum(v - 1 for v in x + y + z)
                        if r < 0:
                            continue
                        b = hurwitz.BranchData(n=n, x=x, y=y, z=z, r=r)
                        if hodge.cy_condition(b):
                            brute.append(b)
        assert sorted(brute, key=lambda b: (b.n, b.x, b.y, b.z, b.r)) == catalog


@pytest.mark.parametrize(
    "args, unrecognized",
    [
        (["monodromy", "--precision", "16"], "--precision 16"),
        (["monodromy", "--steps", "8"], "--steps 8"),
        (["enumerate", "--max-degree", "3", "--no-search"], "--no-search"),
        (["fibers", "--max-x", "4"], "--max-x 4"),
    ],
    ids=["precision", "steps", "no-search", "max-x"],
)
def test_removed_flags_exit_2(capsys, monkeypatch, args, unrecognized):
    def no_tracking(**kwargs):
        raise AssertionError("tracker started")

    monkeypatch.setattr(cli.monodromy, "puncture_table", no_tracking)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(args)
    captured = capsys.readouterr()
    assert (exit_info.value.code, captured.out) == (2, "")
    assert captured.err.endswith(f"kumfib: error: unrecognized arguments: {unrecognized}\n")


class TestFibers:
    def test_reference_tables(self, capsys):
        code, out, _ = run(["fibers"], capsys)
        assert code == 0
        # x runs up to the degree bound, the largest x of any accepted datum
        assert "x =  2:    6 components" in out and "x =  8:   66 components" in out
        assert "x =  9" not in out
        assert "y = 1: 20 components" in out
        assert "cA_{z-1}" in out


class TestVerify:
    def test_fast_subset_passes(self, capsys):
        code, out, _ = run(
            [
                "verify-paper",
                "--only",
                "tower",
                "j-formula",
                "pinned-constants",
                "vieta",
            ],
            capsys,
        )
        assert code == 0
        assert out.count("PASS") == 4 and "FAIL" not in out

    def test_failing_check_prints_its_values(self, capsys, monkeypatch):
        monkeypatch.setitem(hodge.C_BY_Y, 4, 1)
        code, out, _ = run(["verify-paper", "--only", "quintic-example"], capsys)
        lines = out.splitlines()
        assert code == 1
        assert [line.split()[0] for line in lines] == ["FAIL", "expected:", "actual:", "0/1"]
        assert "'h11': 59, 'h21': 3, 'euler': 112" in lines[1]
        assert "'h11': 60, 'h21': 3, 'euler': 114" in lines[2]

    def test_failure_names_only_the_differing_labels(self, capsys, monkeypatch):
        # the whole multiplication table would be 3377 characters
        monkeypatch.setattr(family, "ALPHA_LABELS", family.ALPHA_LABELS.inverse())
        code, out, _ = run(["verify-paper", "--only", "deck-group"], capsys)
        lines = out.splitlines()
        assert code == 1
        assert [line.split()[0] for line in lines] == ["FAIL", "expected:", "actual:", "0/1"]
        for line in lines[1:3]:
            assert "{'printed label actions': (Permutation[" in line
            assert "'products'" not in line and "'relations'" not in line


SYMPY_FREE_SCRIPT = """
import contextlib, io, sys
from kumfib import cli
quintic, degree_four = sys.argv[1:]
runs = [
    ["report", quintic],
    ["report", degree_four],
    ["enumerate", "--max-degree", "4"],
    ["fibers"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(args) for args in runs]
    mpmath_before_monodromy = "mpmath" in sys.modules
    codes.append(cli.main(["monodromy"]))
print(codes, "sympy" in sys.modules, mpmath_before_monodromy)
"""


def test_commands_other_than_verify_paper_do_not_import_sympy(tmp_path):
    # sympy is for factorization and the symbolic oracles of verify-paper,
    # mpmath for monodromy's base-point solve; importing them costs most of
    # a CLI process's start-up
    src = str(Path(kumfib.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    docs = [
        write_doc(tmp_path, QUINTIC_DOC, "quintic.json"),
        write_doc(tmp_path, REGULAR_COVER_DOC, "cover.json"),
    ]
    result = subprocess.run(
        [sys.executable, "-c", SYMPY_FREE_SCRIPT, *docs],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[0, 0, 0, 0, 0] False False\n"


VERIFY_SYMPY_SCRIPT = """
import sys
from kumfib import cli
loaded = ["sympy" in sys.modules]
cli.verification.run_all = lambda keys: loaded.append("sympy" in sys.modules) or []
print(cli.main(["verify-paper"]), loaded)
"""


def test_verify_paper_imports_sympy_before_the_checks():
    # in a fresh process, so that sympy is not loaded already: the one-off
    # import is not charged to the first check that factors
    src = str(Path(kumfib.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", VERIFY_SYMPY_SCRIPT],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0/0 checks passed\n0 [False, True]\n"


# -- fuzzing `report` -------------------------------------------------------------


def _cycle_text(n):
    """Cycle strings for degree n: mostly well formed, some out of range or garbled."""
    cycle = st.lists(st.integers(0, max(n, 1) + 1), min_size=1, max_size=4)
    written = st.lists(cycle, max_size=3).map(
        lambda cs: "".join("(" + " ".join(map(str, c)) + ")" for c in cs)
    )
    return st.one_of(written, st.sampled_from(["id", "", "(1 2", "(a b)"]), st.integers(-1, 2))


@st.composite
def _well_formed_cover(draw):
    """A cover whose product is the identity: zero is solved from the others."""
    n = draw(st.integers(1, 8))
    perm = st.permutations(range(1, n + 1)).map(Permutation)
    quarter, infinity = draw(perm), draw(perm)
    extras = draw(st.lists(perm, max_size=2))
    tail = Permutation.identity(n)
    for e in extras:
        tail = e * tail
    zero = tail.inverse() * (infinity * quarter).inverse()
    cycles = [p.cycle_string() for p in (quarter, infinity, zero)]
    return {
        "degree": n,
        **dict(zip(("quarter256", "infinity", "zero"), cycles)),
        "extras": [e.cycle_string() for e in extras],
    }


def _raw_cover(n):
    fields = {mark: _cycle_text(n) for mark in ("quarter256", "infinity", "zero")}
    fields["extras"] = st.one_of(st.lists(_cycle_text(n), max_size=2), st.just("(1 2)"))
    return st.fixed_dictionaries({"degree": st.just(n)}, optional=fields)


_FORMATS = st.sampled_from(["text", "jsonl", "both", "xml"])
# valid values twice as often as refused ones
_LIMITS = st.one_of(st.integers(1, 20), st.integers(1, 20), st.sampled_from([0, -1, "4"]))
_BUDGETS = st.one_of(st.integers(1, 20_000), st.integers(1, 20_000), st.sampled_from([0, -1]))


@st.composite
def _branch_data_document(draw):
    n = draw(st.integers(-1, 12))
    exact = st.sampled_from([list(p) for p in hurwitz.partitions(n)]) if n >= 0 else st.nothing()
    part = st.one_of(exact, st.lists(st.integers(-1, 12), max_size=4))
    x, y, z = (draw(exact if n >= 0 and draw(st.booleans()) else part) for _ in "xyz")
    admissible_r = 2 * n - 2 - sum(v - 1 for v in [*x, *y, *z])
    r = draw(st.one_of(st.just(max(admissible_r, 0)), st.integers(-1, 6)))
    options = draw(
        st.fixed_dictionaries(
            {}, optional={"output_format": _FORMATS, "search_limit": _LIMITS}
        )
    )
    if draw(st.booleans()):
        options["max_candidates"] = draw(_BUDGETS)
    return {"branch_data": {"n": n, "x": x, "y": y, "z": z, "r": r}, "options": options}


_cover_document = st.fixed_dictionaries(
    {
        "cover": st.one_of(
            _well_formed_cover(),
            st.integers(-1, 12).flatmap(_raw_cover),
            st.sampled_from([3, "4", {"degree": True}, {"degree": 2.0}, {"degree": 3, "at": 1}]),
        )
    },
    optional={"options": st.fixed_dictionaries({}, optional={"output_format": _FORMATS})},
)

_malformed_text = st.sampled_from(
    [
        "{not json",
        "[]",
        "{}",
        '{"cover": {"degree": 2}, "branch_data": {}}',
        '{"cover": {"degree": 2}, "options": []}',
        '{"cover": {"degree": 2}, "options": {"precision_bits": 16}}',
        '{"cover": {"degree": 2}, "optoins": {}}',
    ]
)

_documents = st.one_of(
    _cover_document.map(json.dumps),
    _branch_data_document().map(json.dumps),
    _malformed_text,
)


def _report_in_process(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["report", path])
    return code, out.getvalue(), err.getvalue()


# a fixed sample, so the suite's outcome and run time do not vary between runs
@settings(max_examples=80, deadline=None, derandomize=True)
@given(_documents)
@example(json.dumps({"cover": {"degree": 10**9, "zero": "(1 2)", "infinity": "(1 2)"}}))
@example(json.dumps({"branch_data": NON_CY_DOCS[0]["branch_data"]}))
@example(json.dumps({"branch_data": NON_CY_DOCS[1]["branch_data"]}))
def test_report_fuzz_exits_cleanly_and_deterministically(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        code, out, err = _report_in_process(path)
        assert code in (0, 2, 3), (code, err)
        assert "Traceback" not in err
        assert _report_in_process(path)[1] == out
