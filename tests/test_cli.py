import contextlib
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from versalp import cli, versal
from versalp.dyer_lashof import enumerate_generators
from versalp.free_algebra import EXTERIOR, Monomial, enumerate_monomials
from versalp.steenrod_dual import milnor_generator_degrees
from versalp.versal import VerificationError

from oracles import csv_reference


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The generators each listing report lists, by subcommand; collision is
# pinned at p = 2, degree 4.
LISTED = {
    "basis": lambda p, n: enumerate_generators(p, 1, n),
    "steenrod": milnor_generator_degrees,
    "collision": lambda p, n: enumerate_generators(2, 1, 4),
}


def canonical_document(command, p, n):
    """A listing report's JSON envelope as plain JSON values, its basis the
    canonical names of ``enumerate_monomials``."""
    if command == "collision":
        p, n = 2, 4
    series = versal.steenrod_series(p, n) if command == "steenrod" else versal.homology_series(p, n)
    names = enumerate_monomials(LISTED[command](p, n), n).names
    document = {
        "prime": p,
        "max_degree": n,
        "kind": command,
        "series": [str(c) for c in series.coefficients],
        "basis": [{"degree": d, "monomials": list(b)} for d, b in enumerate(names)],
    }
    if command == "collision":
        witness = versal.structure_map_collision()
        sources = [m.render() for m in witness.source_monomials]
        document["witness"] = {"sources": sources, "image": witness.image}
    document["assumptions"] = []
    return document


def test_homotopy_csv_snapshot(capsys):
    code, out, err = run(
        capsys, "homotopy", "--prime", "3", "--max-degree", "8", "--format", "csv"
    )
    assert code == 0
    rows = ["degree,coefficient"] + [f"{d},{c}" for d, c in enumerate(
        [1, 0, 0, 0, 0, 0, 0, 0, 1]
    )]
    assert out == "\n".join(rows) + "\n"
    assert err == ""


def test_basis_table_snapshot(capsys):
    code, out, _ = run(
        capsys, "basis", "--prime", "2", "--max-degree", "4", "--format", "table"
    )
    assert code == 0
    assert out == (
        "degree  monomials\n"
        "     0  1\n"
        "     1  a\n"
        "     2  a^2\n"
        "     3  a^3, Q^2 a\n"
        "     4  a^4, a·Q^2 a, Q^3 a\n"
    )


def test_equivalences_table_is_bare_count(capsys):
    code, out, _ = run(capsys, "equivalences", "--prime", "5")
    assert code == 0
    assert out == "4\n"


def test_hz_compare_table(capsys):
    code, out, _ = run(capsys, "hz-compare", "--prime", "5", "--max-degree", "10")
    assert code == 0
    assert out == "8\n"


def test_steenrod_csv_snapshot(capsys):
    code, out, _ = run(
        capsys, "steenrod", "--prime", "3", "--max-degree", "8", "--format", "csv"
    )
    assert code == 0
    assert out == (
        "degree,monomial\n"
        "0,1\n"
        "1,tau_0\n"
        "4,xi_1\n"
        "5,tau_0·xi_1\n"
        "5,tau_1\n"
        "6,tau_0·tau_1\n"
        "8,xi_1^2\n"
    )


def test_homology_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "homology", "--prime", "3", "--max-degree", "8", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["prime"] == 3
    assert report["max_degree"] == 8
    assert report["kind"] == "homology"
    got = [int(c) for c in report["series"]]
    assert got == list(versal.homology_series(3, 8).coefficients)
    assert report["assumptions"] == []
    assert set(report) == {"prime", "max_degree", "kind", "series", "assumptions"}


def test_homotopy_json_carries_verdicts_and_assumption(capsys):
    code, out, _ = run(
        capsys, "homotopy", "--prime", "2", "--max-degree", "8", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    verdicts = {v["name"]: v["passed"] for v in report["verdicts"]}
    assert verdicts == {"gap": True, "tensor_identity": True, "nonnegativity": True}
    assert report["assumptions"] == [versal.SPLITTING_ASSUMPTION]
    assert [int(c) for c in report["series"]] == [1, 0, 0, 0, 1, 1, 1, 1, 2]


def test_taq_json_includes_cotangent_series(capsys):
    code, out, _ = run(
        capsys, "taq", "--prime", "2", "--max-degree", "5", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert [int(c) for c in report["series"]] == [0, 1, 0, 0, 0, 0]
    assert [int(c) for c in report["cotangent_series"]] == [0, 1, 0, 0, 0, 1]


def test_basis_json_buckets(capsys):
    code, out, _ = run(
        capsys, "basis", "--prime", "3", "--max-degree", "8", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    buckets = {entry["degree"]: entry["monomials"] for entry in report["basis"]}
    assert buckets[8] == ["(bQ^1 a)^2", "bQ^2 a"]
    assert buckets[2] == []


def test_collision_report(capsys):
    code, out, _ = run(capsys, "collision", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["prime"] == 2
    assert report["witness"] == {"sources": ["Q^3 a", "a^4"], "image": "e_1^4"}

    code, out, _ = run(capsys, "collision")
    assert code == 0
    assert out == "source  Q^3 a\nsource  a^4\nimage   e_1^4\n"


def test_collision_rejects_odd_prime(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["collision", "--prime", "3"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "p=2" in captured.err


def test_verify_passes_for_small_primes(capsys):
    for p in ("2", "3"):
        code, out, _ = run(capsys, "verify", "--prime", p)
        assert code == 0
        assert "FAIL" not in out
        assert "PASS  gap" in out


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "--prime", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check,passed"
    assert "gap,true" in lines


def test_verify_reports_failure_with_exit_2(monkeypatch, capsys):
    verdicts = (versal.Verdict("gap", False, "forced"),)
    monkeypatch.setattr(versal, "battery_verdicts", lambda report: verdicts)
    code, out, _ = run(capsys, "verify", "--prime", "2")
    assert code == 2
    assert "FAIL  gap" in out


def test_verification_error_exits_2_without_report(monkeypatch, capsys):
    def boom(p, n):
        raise VerificationError("forced failure")

    monkeypatch.setattr(versal, "homotopy_series", boom)
    code, out, err = run(capsys, "homotopy", "--prime", "2")
    assert code == 2
    assert out == ""
    assert "forced failure" in err


def test_usage_errors_exit_1(capsys):
    for argv in (
        ["homology", "--prime", "4"],
        ["homology", "--prime", "9"],
        ["homology"],
        ["homology", "--prime", "2", "--max-degree", "-1"],
        ["homology", "--prime", "2", "--format", "xml"],
        ["no-such-command"],
        [],
        ["hz-compare", "--prime", "5", "--max-degree", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1, argv
        capsys.readouterr()


def test_default_max_degree_is_4p_minus_4(capsys):
    code, out, _ = run(capsys, "homology", "--prime", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["max_degree"] == 8


def test_output_flag_writes_identical_bytes(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "thh", "--prime", "2", "--max-degree", "4", "--format", "json",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    code, stdout_text, _ = run(
        capsys, "thh", "--prime", "2", "--max-degree", "4", "--format", "json"
    )
    assert code == 0
    assert target.read_text(encoding="utf-8") == stdout_text


def test_output_file_bytes_pass_no_newline_translation(tmp_path, monkeypatch, capsys):
    # A text-mode file on a platform whose line separator is \r\n would
    # write \r\n for every \n; this open translates text mode that way.
    modes = []

    def opening(path, mode="r", *args, **kwargs):
        modes.append(mode)
        if "b" not in mode:
            kwargs["newline"] = "\r\n"
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", opening, raising=False)
    target = tmp_path / "basis.csv"
    argv = ["basis", "--prime", "2", "--format", "csv"]
    assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
    assert modes == ["wb"]
    assert target.read_bytes() == run(capsys, *argv)[1].encode("utf-8")


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_stdout_is_utf8_whatever_the_locale(tmp_path, encoding):
    target = tmp_path / "basis.txt"
    env = dict(os.environ, PYTHONIOENCODING=encoding,
               PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = [sys.executable, "-m", "versalp.cli", "basis", "--prime", "2"]
    printed = subprocess.run(argv, env=env, capture_output=True, timeout=60)
    written = subprocess.run(argv + ["--output", str(target)], env=env, capture_output=True,
                             timeout=60)
    assert (printed.returncode, printed.stderr) == (0, b"")
    assert (written.returncode, written.stderr, written.stdout) == (0, b"", b"")
    assert printed.stdout == target.read_bytes()
    assert "a·Q^2 a".encode("utf-8") in printed.stdout


def test_json_and_csv_are_byte_deterministic(capsys):
    first = run(capsys, "basis", "--prime", "3", "--max-degree", "8", "--format", "json")
    second = run(capsys, "basis", "--prime", "3", "--max-degree", "8", "--format", "json")
    assert first == second
    first = run(capsys, "homotopy", "--prime", "2", "--format", "csv")
    second = run(capsys, "homotopy", "--prime", "2", "--format", "csv")
    assert first == second


def test_thh_series_output(capsys):
    code, out, _ = run(
        capsys, "thh", "--prime", "2", "--max-degree", "4", "--format", "csv"
    )
    assert code == 0
    assert out == "degree,coefficient\n0,1\n1,1\n2,2\n3,3\n4,5\n"


def test_unwritable_output_path_exits_1(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(
        capsys, "homology", "--prime", "2", "--format", "json", "--output", str(target)
    )
    assert code == 1
    assert out == ""
    reason = os.strerror(errno.ENOENT)
    assert err == f"versalp: error: cannot write {target}: {reason}\n"
    assert not target.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [("homology", "--prime", "2", "--max-degree", "3"),
                                  ("basis", "--prime", "3", "--max-degree", "40")])
def test_unwritable_stdout_exits_1(argv, unbuffered):
    # Short text stays in a buffered stdout until the flush; long text is
    # written at once; PYTHONUNBUFFERED writes without a buffer.
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=str(Path(cli.__file__).parents[1]))
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "versalp.cli", *argv], env=env,
                              stdout=full, stderr=subprocess.PIPE, timeout=60)
    reason = os.strerror(errno.ENOSPC)
    assert proc.returncode == 1
    assert proc.stderr.decode() == f"versalp: error: cannot write stdout: {reason}\n"


def test_cli_import_loads_no_dataclasses_json_or_typing():
    # Each of these costs every CLI launch milliseconds before any report.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = ("import sys, versalp.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'json', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


def test_homotopy_table_snapshot(capsys):
    code, out, err = run(capsys, "homotopy", "--prime", "2", "--max-degree", "8")
    assert code == 0
    rows = [f"{d:>6}  {c}" for d, c in enumerate([1, 0, 0, 0, 1, 1, 1, 1, 2])]
    assert out == "\n".join(
        ["degree  coefficient"]
        + rows
        + ["", "# gap_verified: true", "# first_positive_nonzero_degree: 4"]
    ) + "\n"
    assert err == ""


def test_taq_table_snapshot(capsys):
    code, out, _ = run(capsys, "taq", "--prime", "2", "--max-degree", "5")
    assert code == 0
    assert out == (
        "degree  coefficient\n"
        "     0  0\n"
        "     1  1\n"
        "     2  0\n"
        "     3  0\n"
        "     4  0\n"
        "     5  0\n"
        "\n"
        "# cotangent_series: 0,1,0,0,0,1\n"
    )


# (name, detail) of every verify check at p = 2 with the default degree 4.
VERIFY_P2 = [
    ("nonnegativity", "min coefficient 0"),
    ("tensor_identity", "homotopy * steenrod == homology"),
    ("gap", "checked through degree 4"),
    ("h1_dimension", "H_1 dimension 1"),
    ("equivalence_count", "count 1"),
    ("selfmap_degree", "degree 3"),
    ("hz_first_difference", "first difference at degree 2"),
    ("taq_dimensions", "single 1 in degree 1"),
    ("cotangent_shift", "equals t * homotopy"),
    ("basis_series_agreement", "monomial counts match series through degree 4"),
    ("thh_tensor", "tensor enumeration matches through degree 4"),
    ("collision_witness", "['Q^3 a', 'a^4'] -> e_1^4"),
]


def test_verify_table_snapshot(capsys):
    code, out, _ = run(capsys, "verify", "--prime", "2")
    assert code == 0
    assert out == "".join(f"PASS  {name}  ({detail})\n" for name, detail in VERIFY_P2)


def test_verify_json_snapshot(capsys):
    code, out, _ = run(capsys, "verify", "--prime", "2", "--format", "json")
    assert code == 0
    expected = {
        "prime": 2,
        "max_degree": 4,
        "kind": "verify",
        "series": ["1", "1", "1", "2", "3"],
        "verdicts": [
            {"name": name, "passed": True, "detail": detail}
            for name, detail in VERIFY_P2
        ],
        "assumptions": [versal.SPLITTING_ASSUMPTION],
    }
    assert list(json.loads(out)) == list(expected)
    assert out == json.dumps(expected, indent=2) + "\n"


def test_collision_json_snapshot(capsys):
    code, out, _ = run(capsys, "collision", "--format", "json")
    assert code == 0
    buckets = [["1"], ["a"], ["a^2"], ["a^3", "Q^2 a"], ["a^4", "a\u00b7Q^2 a", "Q^3 a"]]
    expected = {
        "prime": 2,
        "max_degree": 4,
        "kind": "collision",
        "series": ["1", "1", "1", "2", "3"],
        "basis": [
            {"degree": d, "monomials": bucket} for d, bucket in enumerate(buckets)
        ],
        "witness": {"sources": ["Q^3 a", "a^4"], "image": "e_1^4"},
        "assumptions": [],
    }
    assert list(json.loads(out)) == list(expected)
    assert out == json.dumps(expected, indent=2) + "\n"
    assert "a\\u00b7Q^2 a" in out


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_each_monomial_rendered_once(monkeypatch, capsys, fmt):
    counts = {}
    render = Monomial.render

    def counted(m):
        counts[m] = counts.get(m, 0) + 1
        return render(m)

    monkeypatch.setattr(Monomial, "render", counted)
    for argv in (["basis", "--prime", "2"], ["steenrod", "--prime", "3"], ["collision"]):
        counts.clear()
        assert run(capsys, *argv, "--format", fmt)[0] == 0
        # Listed monomials take their names from the basis, not from render.
        assert max(counts.values(), default=0) <= 1, argv
    sources = versal.structure_map_collision().source_monomials
    assert set(counts) == set(sources) and len(sources) == 2


def test_listing_reports_build_no_monomial(monkeypatch, capsys):
    def never(monomial, factors):
        raise AssertionError("built a Monomial for a report that prints names")

    # Monomial.__init__ validates every Monomial built.
    monkeypatch.setattr(Monomial, "__init__", never)
    for argv in (["basis", "--prime", "3", "--max-degree", "40"],
                 ["steenrod", "--prime", "5", "--max-degree", "60"]):
        for fmt in ("table", "json", "csv"):
            assert run(capsys, *argv, "--format", fmt)[0] == 0, (argv, fmt)
    code, out, _ = run(capsys, "verify", "--prime", "3")
    assert code == 0 and "FAIL" not in out

    monkeypatch.undo()
    code, out, _ = run(capsys, "collision")
    assert (code, out) == (0, "source  Q^3 a\nsource  a^4\nimage   e_1^4\n")
    basis = enumerate_monomials(enumerate_generators(3, 1, 12), 12)
    assert all(type(m) is Monomial for bucket in basis.buckets for m in bucket)
    assert [len(b) for b in basis.buckets] == basis.dimensions()


# Every listing report, basis up to a few degrees over its default.
JSON_LISTINGS = [
    ("basis", p, n) for p in (2, 3, 5) for n in range(4 * (p - 1) + 5)
] + [("steenrod", p, n) for p in (2, 3, 5) for n in (4 * (p - 1), 60)] + [("collision", 2, 4)]


def test_json_listings_equal_json_dumps_of_the_canonical_names(capsys):
    seen = set()
    for command, p, n in JSON_LISTINGS:
        argv = [command] if command == "collision" else [command, "--prime", str(p),
                                                        "--max-degree", str(n)]
        code, out, err = run(capsys, *argv, "--format", "json")
        document = canonical_document(command, p, n)
        assert (code, err) == (0, ""), argv
        assert out == json.dumps(document, indent=2) + "\n", argv
        for entry in document["basis"]:
            seen.update(entry["monomials"] or ["(empty bucket)"])
    assert {"(empty bucket)", "(bQ^1 a)^2", "a\u00b7Q^2 a"} <= seen


@pytest.mark.parametrize("argv", [
    ["basis", "--prime", "2", "--max-degree", "27"],
    ["basis", "--prime", "3", "--max-degree", "58"],
    ["steenrod", "--prime", "2", "--max-degree", "60"],
], ids=" ".join)
def test_json_listing_escapes_each_piece_once(monkeypatch, capsys, argv):
    calls = []
    encode = json.encoder.encode_basestring_ascii

    def counted(s):
        calls.append(s)
        return encode(s)

    monkeypatch.setattr(json.encoder, "encode_basestring_ascii", counted)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    p, n = int(argv[2]), int(argv[4])
    gens = LISTED[argv[0]](p, n)
    pieces = sum(1 if g.kind == EXTERIOR else n // g.degree for g in gens)
    monomials = sum(map(len, enumerate_monomials(gens, n).names))
    # One call per (generator, exponent) piece, the unit and the joiner, and
    # the envelope's keys and series strings, which grow with N, not with
    # the number of monomials listed.
    envelope = 3 * (n + 1) + 10
    assert len(calls) <= pieces + 2 + envelope < monomials / 4, (len(calls), monomials)


# JSON values of the kinds reports hold, and the characters the encoder must
# escape: full-Unicode text, integers past 64 bits, bools and None, empty
# containers, lists of strings only and lists of mixed values.
JSON_SCALARS = st.one_of(
    st.text(), st.integers(min_value=-(2**70), max_value=2**70), st.booleans(), st.none()
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(st.text()),
        st.lists(st.text()).map(tuple),
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(st.text(), inner),
    ),
    max_leaves=20,
)


@given(JSON_VALUES)
@example({"degree": 2, "monomials": []})
@example(canonical_document("collision", 2, 4))  # the collision envelope
@example(["\u00b7", '"', "\\", "\x00\x1f\n", "\U0001f600", [], {}, 2**64 + 1, True, None])
def test_json_text_equals_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("argv", [
    ["basis", "--prime", "2", "--max-degree", "6"],
    ["steenrod", "--prime", "3", "--max-degree", "8"],
    ["collision"],
])
def test_listing_that_disagrees_with_its_series_exits_2(monkeypatch, capsys, argv):
    name = "steenrod_series" if argv[0] == "steenrod" else "homology_series"
    series = getattr(versal, name)

    def off_by_one(p, n):
        c = series(p, n).coefficients
        return versal.TruncatedSeries(n, c[:-1] + (c[-1] + 1,))

    monkeypatch.setattr(versal, name, off_by_one)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    top = 4 if argv[0] == "collision" else int(argv[-1])
    assert f"monomials in degree {top}, the series says" in err


def test_listing_over_the_size_limit_exits_1_before_enumerating(monkeypatch, capsys):
    def never(*args):
        raise AssertionError("listed a basis over the limit")

    monkeypatch.setattr(cli, "list_names", never)
    code, out, err = run(capsys, "basis", "--prime", "2", "--max-degree", "60")
    assert code == 1
    assert out == ""
    assert "17529001 monomials" in err
    assert str(cli.MAX_LISTED_MONOMIALS) in err


def test_listing_over_the_size_limit_builds_no_generator(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("built generators for a listing over the limit")

    monkeypatch.setattr(cli, "enumerate_generators", never)
    monkeypatch.setattr(cli, "milnor_generator_degrees", never)
    for argv in (["basis", "--prime", "2", "--max-degree", "4000"],
                 ["steenrod", "--prime", "2", "--max-degree", "400"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert f"more than the limit of {cli.MAX_LISTED_MONOMIALS}" in err


# Every subcommand at its default degree, and listings a few degrees up.
CSV_ARGVS = [
    [command, "--prime", str(p)]
    for command in cli.COMMANDS if command != "collision" for p in (2, 3)
] + [
    ["collision"],
    ["basis", "--prime", "3", "--max-degree", "40"],
    ["steenrod", "--prime", "5", "--max-degree", "60"],
    ["verify", "--prime", "2"],
]


@pytest.mark.parametrize("argv", CSV_ARGVS, ids=" ".join)
def test_csv_equals_the_csv_module_writer(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    p = int(argv[2]) if len(argv) > 2 else 2
    n = int(argv[4]) if len(argv) > 4 else 4 * (p - 1)
    report = cli.COMMANDS[argv[0]](p, n)
    basis = enumerate_monomials(LISTED[argv[0]](p, n), n) if argv[0] in LISTED else None
    assert out == csv_reference(report, basis)


def test_generator_labels_hold_no_csv_special_character():
    special = set(',"\r\n')
    labels = [g.label for p in (2, 3, 5, 7) for g in milnor_generator_degrees(p, 400)]
    for p, n in ((2, 40), (3, 80), (5, 160), (7, 240)):
        labels += [g.label for g in enumerate_generators(p, 1, n)]
        labels += [g.label for g in enumerate_generators(p, 2, n, symbol="b")]
    assert not [label for label in labels if special & set(label)]


def test_series_degree_over_the_limit_exits_1_before_computing(monkeypatch, capsys):
    def never(*args):
        raise AssertionError("computed a series over the degree limit")

    for name in ("homology_series", "steenrod_series", "homotopy_report",
                 "homotopy_series", "thh_homology_series", "cotangent_series"):
        monkeypatch.setattr(versal, name, never)
    over = cli.MAX_SERIES_DEGREE + 1
    for argv, degree in (
        (["homology", "--prime", "1000003"], 4_000_008),
        (["thh", "--prime", "2", "--max-degree", str(over)], over),
        (["verify", "--prime", "7", "--max-degree", str(over)], over),
        (["basis", "--prime", "3", "--max-degree", str(over)], over),
        # the battery's self-map check computes at 4(p - 1)
        (["verify", "--prime", "1009", "--max-degree", "10"], 4032),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"versalp: error: {argv[0]} through degree {degree}" in err
        assert f"limit of {cli.MAX_SERIES_DEGREE}" in err


def test_series_degree_at_the_limit_and_degree_free_reports_run(monkeypatch, capsys):
    monkeypatch.setitem(cli.COMMANDS, "homology", lambda p, n: cli.Report("homology", p, n, (n,)))
    limit = str(cli.MAX_SERIES_DEGREE)
    code, out, _ = run(capsys, "homology", "--prime", "2", "--max-degree", limit, "--format", "csv")
    assert (code, out) == (0, f"degree,coefficient\n0,{limit}\n")
    # equivalences and collision never compute at the requested degree
    assert run(capsys, "equivalences", "--prime", "1000003") == (0, "1000002\n", "")
    assert run(capsys, "collision", "--max-degree", str(10**9))[0] == 0


# Every token a fuzzed argv may use; the integers stop at 20 and the flags
# leave out --output, so each run is small and writes no file.
ARGV_INTEGERS = [str(i) for i in range(-1, 21)]
ARGV_FORMATS = ["table", "json", "csv"]
ARGV_TOKENS = [
    *cli.COMMANDS, "--prime", "--max-degree", "--format", "-h", *ARGV_FORMATS,
    "--junk", "junk", "", "-", "--", *ARGV_INTEGERS,
]
# Half the argvs are shaped like a call (a subcommand, then flags with a
# value of their type), so that reports run as well as usage errors.
ARGVS = st.one_of(
    st.lists(st.sampled_from(ARGV_TOKENS), max_size=7),
    st.builds(
        lambda command, pairs: [command, *(t for pair in pairs for t in pair)],
        st.sampled_from(list(cli.COMMANDS)),
        st.lists(
            st.one_of(
                st.tuples(
                    st.sampled_from(["--prime", "--max-degree"]),
                    st.sampled_from(ARGV_INTEGERS),
                ),
                st.tuples(st.just("--format"), st.sampled_from(ARGV_FORMATS)),
            ),
            max_size=3,
        ),
    ),
)


@settings(deadline=None)
@given(ARGVS)
def test_any_argv_exits_0_1_or_2(argv):
    with (
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
