"""Command line reports for the versal characteristic-p computations.

Subcommands: homology, homotopy, basis, steenrod, thh, taq, equivalences,
hz-compare, collision, verify.  Output formats: table (default), json,
csv; json and csv are byte-deterministic.  Exit status: 0 on success, 1 on
usage errors (including a prime at or above ``primes.PRIME_LIMIT``), on
degrees over the series limit and on listings over the size limit, 2 when a
mathematical verification fails.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Sequence

from . import versal
from .dyer_lashof import enumerate_generators
# bench/tracing.py wraps enumerate_monomials under this module's name.
from .free_algebra import GeneratorSet, enumerate_monomials, list_names  # noqa: F401
from .power_series import TruncatedSeries
from .primes import PRIME_LIMIT, is_prime
from .steenrod_dual import milnor_generator_degrees


class Report:
    """One subcommand's result, formatted by ``render``.

    Every report has the envelope fields and at most one of the optional
    parts, except collision, which has both a basis and a witness.  A listing
    report holds the generators of its basis, which ``render`` lists in the
    output's encoding.
    """

    __slots__ = ("kind", "prime", "max_degree", "series", "assumptions", "scalar_name",
                 "generators", "witness", "verdicts", "homotopy", "cotangent")

    def __init__(
        self,
        kind: str,
        prime: int,
        max_degree: int,
        series: tuple[int, ...],
        assumptions: tuple[str, ...] = (),
        scalar_name: str | None = None,  # the single value's CSV name
        generators: GeneratorSet | None = None,  # basis, steenrod, collision
        witness: versal.CollisionWitness | None = None,
        verdicts: tuple[versal.Verdict, ...] | None = None,  # verify
        homotopy: versal.HomotopyReport | None = None,
        cotangent: TruncatedSeries | None = None,
    ) -> None:
        self.kind = kind
        self.prime = prime
        self.max_degree = max_degree
        self.series = series
        self.assumptions = assumptions
        self.scalar_name = scalar_name
        self.generators = generators
        self.witness = witness
        self.verdicts = verdicts
        self.homotopy = homotopy
        self.cotangent = cotangent

    @property
    def failed(self) -> bool:
        return any(not v.passed for v in self.verdicts or ())


def _strings(values) -> list[str]:
    return [str(c) for c in values]


def _sources(witness: versal.CollisionWitness) -> list[str]:
    return [m.render() for m in witness.source_monomials]


def _names(r: Report, encode=str) -> list[list[str]] | None:
    """The basis of a listing report in degrees 0..N, each name in the
    string encoding ``encode``, after checking that every degree holds as
    many names as the series says: the two are computed independently, from
    generator counts and from the listing.  Raises VerificationError, before
    anything is written, when they disagree.  None for other reports."""
    if r.generators is None:
        return None
    names = list_names(r.generators, r.max_degree, encode)
    for d, (bucket, expected) in enumerate(zip(names, r.series)):
        if len(bucket) != expected:
            raise versal.VerificationError(
                f"{r.kind} lists {len(bucket)} monomials in degree {d}, the series says {expected}"
            )
    return names


class _Escaped:
    """Strings already JSON-escaped, without their quotes: ``_json_text``
    writes them as a list of strings without escaping them again."""

    __slots__ = ("strings",)

    def __init__(self, strings: list[str]) -> None:
        self.strings = strings


def _json(r: Report, names: list[list[str]] | None) -> dict:
    """The envelope: prime, max_degree, kind, series, then basis (``names``,
    JSON-escaped), witness and the verify verdicts, assumptions, and last
    the homotopy verdicts or the cotangent series."""
    out = {
        "prime": r.prime,
        "max_degree": r.max_degree,
        "kind": r.kind,
        "series": _strings(r.series),
    }
    if names is not None:
        out["basis"] = [
            {"degree": d, "monomials": _Escaped(bucket)} for d, bucket in enumerate(names)
        ]
    if r.witness is not None:
        out["witness"] = {"sources": _sources(r.witness), "image": r.witness.image}
    if r.verdicts is not None:
        out["verdicts"] = [
            {"name": v.name, "passed": v.passed, "detail": v.detail}
            for v in r.verdicts
        ]
    out["assumptions"] = list(r.assumptions)
    if r.homotopy is not None:
        out["verdicts"] = [
            {"name": "gap", "passed": r.homotopy.gap_verified},
            {"name": "tensor_identity", "passed": r.homotopy.tensor_identity},
            {"name": "nonnegativity", "passed": r.homotopy.nonnegative},
        ]
    if r.cotangent is not None:
        out["cotangent_series"] = _strings(r.cotangent.coefficients)
    return out


def _csv(r: Report, names: list[list[str]] | None) -> list[str]:
    """Lines of the CSV form, header first.

    No field ever holds a comma, a double quote, a carriage return or a
    newline: fields are integers, fixed names, ``true``/``false``, monomial
    and word names (``Q^``, ``bQ^``, letters, digits, spaces, ``·``, ``^``,
    ``_`` and parentheses) and ``e_1^4``.  So the minimal quoting of the
    standard ``csv`` writer would never apply, and joining the fields with
    commas gives its bytes.
    """
    if r.verdicts is not None:
        return ["check,passed"] + [
            f"{v.name},{str(v.passed).lower()}" for v in r.verdicts
        ]
    if r.witness is not None:
        lines = [f"source_{i},{s}" for i, s in enumerate(_sources(r.witness), 1)]
        return ["name,value", *lines, f"image,{r.witness.image}"]
    if r.scalar_name is not None:
        return ["name,value", f"{r.scalar_name},{r.series[0]}"]
    if names is not None:
        lines = ["degree,monomial"]
        for d, bucket in enumerate(names):
            if bucket:
                # One string per degree: every row of the bucket at once.
                prefix = f"{d},"
                lines.append(prefix + ("\n" + prefix).join(bucket))
        return lines
    return ["degree,coefficient"] + [f"{d},{c}" for d, c in enumerate(r.series)]


def _table(r: Report, names: list[list[str]] | None) -> list[str]:
    if r.verdicts is not None:
        return [
            f"{'PASS' if v.passed else 'FAIL'}  {v.name}"
            + (f"  ({v.detail})" if v.detail else "")
            for v in r.verdicts
        ]
    if r.witness is not None:
        lines = [f"source  {s}" for s in _sources(r.witness)]
        return lines + [f"image   {r.witness.image}"]
    if r.scalar_name is not None:
        return [str(r.series[0])]
    if names is not None:
        return ["degree  monomials"] + [
            f"{d:>6}  {', '.join(bucket) or '-'}" for d, bucket in enumerate(names)
        ]
    lines = ["degree  coefficient"]
    lines += [f"{d:>6}  {c}" for d, c in enumerate(r.series)]
    if r.homotopy is not None:
        first = r.homotopy.first_positive_nonzero_degree
        lines += [
            "",
            f"# gap_verified: {str(r.homotopy.gap_verified).lower()}",
            f"# first_positive_nonzero_degree: {first if first is not None else '-'}",
        ]
    if r.cotangent is not None:
        cotangent = ",".join(_strings(r.cotangent.coefficients))
        lines += ["", f"# cotangent_series: {cotangent}"]
    return lines


def _json_text(value, end: str = "") -> str:
    """``json.dumps(value, indent=2) + end`` for dicts with string keys,
    lists, tuples, scalars and ``_Escaped`` lists.  Any indent makes the
    standard library fall back to its pure-Python encoder; here a list of
    strings is encoded in one pass of the C string encoder (where the
    interpreter has one), an ``_Escaped`` list is joined as it is, and only
    mixed lists, dicts and other scalars take the slower path.  The parts
    are joined once, at the end."""
    import json  # only JSON output pays for loading the package

    encode, dumps = json.encoder.encode_basestring_ascii, json.dumps
    parts: list[str] = []

    def emit(value, newline: str) -> None:
        inner = newline + "  "
        if isinstance(value, _Escaped):
            if value.strings:
                body = ('",' + inner + '"').join(value.strings)
                parts.extend(("[", inner, '"', body, '"', newline, "]"))
            else:
                parts.append("[]")
        elif isinstance(value, dict) and value:
            opening = "{"
            for k, v in value.items():
                parts.extend((opening, inner, encode(k), ": "))
                emit(v, inner)
                opening = ","
            parts.extend((newline, "}"))
        elif isinstance(value, (list, tuple)) and value:
            try:
                parts.extend(("[", inner, ("," + inner).join(map(encode, value)), newline, "]"))
            except TypeError:  # not all strings
                opening = "["
                for v in value:
                    parts.extend((opening, inner))
                    emit(v, inner)
                    opening = ","
                parts.extend((newline, "]"))
        else:
            parts.append(dumps(value))

    emit(value, "\n")
    parts.append(end)
    return "".join(parts)


def render(report: Report, fmt: str) -> str:
    """``report`` as table, json or csv text; only that form is built.  A
    listing report lists its basis once, in that form's encoding: JSON
    escaping maps each character on its own, so escaping each piece of a
    name once escapes every name that holds it.  Raises VerificationError
    when the listing disagrees with the series."""
    if fmt == "json":
        import json  # only JSON output pays for loading the package

        encode = json.encoder.encode_basestring_ascii
        names = _names(report, lambda s: encode(s)[1:-1])
        return _json_text(_json(report, names), "\n")
    names = _names(report)
    lines = _csv(report, names) if fmt == "csv" else _table(report, names)
    lines.append("")
    return "\n".join(lines)


# Most monomials a listing report may hold; the series gives the exact count
# before anything is enumerated.
MAX_LISTED_MONOMIALS = 1_000_000


# Highest degree a series report may be asked for. At p = 2 the slowest one,
# verify, takes 0.55 s and 18 MB at this degree (2-core x86-64, Python 3.11),
# and 2.9 s and 24 MB at twice it, nearly all in the homology fold, whose
# big-integer products grow about five times with each doubling of the degree.
MAX_SERIES_DEGREE = 4000


class ListingTooLarge(Exception):
    """A listing report would hold more than MAX_LISTED_MONOMIALS monomials."""


def _with_basis(kind: str, p: int, n: int, series: TruncatedSeries,
                generators: Callable[[], GeneratorSet], **parts) -> Report:
    """A listing report, whose basis ``render`` lists and checks against the
    series.  Raises ListingTooLarge, before building the generators, when
    the series predicts more than MAX_LISTED_MONOMIALS monomials; each
    generator is a monomial, so ``generators()`` then builds no more."""
    predicted = sum(series.coefficients)
    if predicted > MAX_LISTED_MONOMIALS:
        raise ListingTooLarge(
            f"{kind} through degree {n} would list {predicted} monomials,"
            f" more than the limit of {MAX_LISTED_MONOMIALS}"
        )
    return Report(kind, p, n, series.coefficients, generators=generators(), **parts)


def _homotopy(p: int, n: int) -> Report:
    homotopy = versal.homotopy_series(p, n)
    if not homotopy.gap_verified:
        raise versal.VerificationError(
            f"gap check failed for p={p} through degree {n}"
        )
    series = homotopy.homotopy_series.coefficients
    assumptions = (versal.SPLITTING_ASSUMPTION,)
    return Report("homotopy", p, n, series, assumptions, homotopy=homotopy)


def _verify(p: int, n: int) -> Report:
    homotopy = versal.homotopy_report(p, n)
    verdicts = versal.battery_verdicts(homotopy)
    series = homotopy.homology_series.coefficients
    assumptions = (versal.SPLITTING_ASSUMPTION,)
    return Report("verify", p, n, series, assumptions, verdicts=verdicts)


# Subcommand name -> report builder taking (prime, truncation degree).
COMMANDS = {
    "homology": lambda p, n: Report(
        "homology", p, n, versal.homology_series(p, n).coefficients
    ),
    "homotopy": _homotopy,
    "basis": lambda p, n: _with_basis(
        "basis", p, n, versal.homology_series(p, n),
        lambda: enumerate_generators(p, 1, n),
    ),
    "steenrod": lambda p, n: _with_basis(
        "steenrod", p, n, versal.steenrod_series(p, n),
        lambda: milnor_generator_degrees(p, n),
    ),
    "thh": lambda p, n: Report(
        "thh", p, n, versal.thh_homology_series(p, n).coefficients
    ),
    "taq": lambda p, n: Report(
        "taq", p, n, versal.taq_dimensions(p, n).coefficients,
        (versal.SPLITTING_ASSUMPTION,), cotangent=versal.cotangent_series(p, n),
    ),
    "equivalences": lambda p, n: Report(
        "equivalences", p, n, (versal.equivalence_count(p),),
        scalar_name="equivalence_count",
    ),
    "hz-compare": lambda p, n: Report(
        "hz-compare", p, n, (versal.hz_quotient_comparison(p, n),),
        (versal.TOR_ASSUMPTION,), scalar_name="first_difference",
    ),
    "collision": lambda p, n: _with_basis(
        "collision", 2, 4, versal.homology_series(2, 4),
        lambda: enumerate_generators(2, 1, 4),
        witness=versal.structure_map_collision(),
    ),
    "verify": _verify,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this tool reserves 2
    for verification failures, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="versalp", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--prime", type=int, help="required except for collision (p=2)")
    parser.add_argument("--max-degree", type=int, help="truncation degree, default 4(p-1)")
    parser.add_argument("--format", choices=("table", "json", "csv"), default="table")
    parser.add_argument("--output", help="path, default stdout")
    return parser


# Built once: parse_args keeps no state between calls.
_PARSER = _build_parser()


def main(argv: "Sequence[str] | None" = None) -> int:
    args = _PARSER.parse_args(argv)

    if args.prime is None:
        if args.command != "collision":
            _PARSER.error("the following arguments are required: --prime")
        args.prime = 2
    if args.prime >= PRIME_LIMIT:
        _PARSER.error(f"--prime must be below {PRIME_LIMIT}, got {args.prime}")
    if not is_prime(args.prime):
        _PARSER.error(f"--prime must be prime, got {args.prime}")
    if args.command == "collision" and args.prime != 2:
        _PARSER.error("collision is a p=2 report")
    if args.max_degree is not None and args.max_degree < 0:
        _PARSER.error(f"--max-degree must be >= 0, got {args.max_degree}")
    # collision ignores the degree: its report is pinned at p = 2, degree 4
    n = 4 * (args.prime - 1) if args.max_degree is None else args.max_degree
    # verify's self-map check computes at 4(p-1) whatever the degree asked
    top = max(n, 4 * (args.prime - 1)) if args.command == "verify" else n
    if top > MAX_SERIES_DEGREE and args.command not in ("collision", "equivalences"):
        _PARSER.error(
            f"{args.command} through degree {top} is over the limit of {MAX_SERIES_DEGREE}"
        )
    if args.command == "hz-compare" and n < 2 * args.prime - 2:
        _PARSER.error(
            f"hz-compare needs --max-degree >= {2 * args.prime - 2} at p={args.prime}"
        )

    try:
        report = COMMANDS[args.command](args.prime, n)
        text = render(report, args.format)
    except versal.VerificationError as exc:
        print(f"versalp: verification failed: {exc}", file=sys.stderr)
        return 2
    except ListingTooLarge as exc:
        print(f"versalp: error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.output is None:
            _write_stdout(text)
        else:
            # Binary, so no platform's newline translation touches the bytes.
            with open(args.output, "wb") as fh:
                fh.write(text.encode("utf-8"))
    except OSError as exc:
        target = "stdout" if args.output is None else args.output
        print(f"versalp: error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 2 if report.failed else 0


def _write_stdout(text: str) -> None:
    """``text`` on stdout as the UTF-8 bytes --output writes, whatever the
    locale's encoding, flushed, so that a failed write raises OSError here.

    After a failure, file descriptor 1 points at the null device: the
    interpreter flushes stdout again at exit, and the bytes the stream still
    holds must not fail a second time."""
    out = sys.stdout
    try:
        buffer = getattr(out, "buffer", None)
        if buffer is None:
            out.write(text)
            out.flush()
        else:
            out.flush()
            buffer.write(text.encode("utf-8"))
            buffer.flush()
    except OSError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, out.fileno())
        os.close(null)
        raise


if __name__ == "__main__":
    sys.exit(main())
