"""Command line reports for the versal characteristic-p computations.

Subcommands: homology, homotopy, basis, steenrod, thh, taq, equivalences,
hz-compare, collision, verify.  Output formats: table (default), json,
csv; json and csv are byte-deterministic.  Exit status: 0 on success, 1 on
usage errors (including a prime at or above ``primes.PRIME_LIMIT``), on
degrees over the series limit and on listings over the size limit, 2 when a
mathematical verification fails.
"""

from __future__ import annotations

import errno
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cache
from itertools import chain

from . import versal
# bench/tracing.py wraps enumerate_generators and enumerate_monomials under
# this module's names; no report here calls them.
from .dyer_lashof import enumerate_generators, generator_rows  # noqa: F401
from .free_algebra import enumerate_monomials, joined_names  # noqa: F401
from .power_series import TruncatedSeries
from .primes import PRIME_LIMIT, is_prime
from .steenrod_dual import milnor_generator_rows
from .value import Value


class Report(Value):
    """One subcommand's result, formatted by ``render``.

    Every report has the envelope fields and at most one of the optional
    parts, except collision, which has both a basis and a witness.  A listing
    report holds the generators of its basis as sorted (degree, label, kind)
    rows, which ``render`` lists in the output's encoding.
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
        generators: tuple[tuple[int, str, str], ...] | None = None,  # basis, steenrod, collision
        witness: versal.CollisionWitness | None = None,
        verdicts: tuple[versal.Verdict, ...] | None = None,  # verify
        homotopy: versal.HomotopyReport | None = None,
        cotangent: TruncatedSeries | None = None,
    ) -> None:
        super().__init__(kind, prime, max_degree, series, assumptions, scalar_name, generators,
                         witness, verdicts, homotopy, cotangent)

    @property
    def failed(self) -> bool:
        return any(not v.passed for v in self.verdicts or ())


def _sources(witness: versal.CollisionWitness) -> list[str]:
    return [m.render() for m in witness.source_monomials]


# A listing's basis: called with a separator per degree, it yields each
# degree's names joined by it as a list of pieces, [] for a degree with none.
Basis = Callable[[Callable[[int], str]], Iterable[list[str]]]


def _basis(r: Report, encode=str) -> Basis | None:
    """The ``join`` of ``free_algebra.joined_names`` for a listing report's
    basis in degrees 0..N, each name in the string encoding ``encode``, once
    each degree is checked to hold as many names as the series says, which is
    computed from generator counts instead.  Raises VerificationError, before
    any name is joined, when they disagree."""
    if r.generators is None:
        return None
    counts, join = joined_names(r.generators, r.max_degree, encode)
    for d, (count, expected) in enumerate(zip(counts, r.series)):
        if count != expected:
            raise versal.VerificationError(
                f"{r.kind} lists {count} monomials in degree {d}, the series says {expected}"
            )
    return join


def _rows(row: str, series: Sequence[int]) -> str:
    """The lines ``row % (d, c)`` for each degree d and its coefficient c
    in ``series``, formatted by one ``%`` over (0, c_0, 1, c_1, ...)."""
    return row * len(series) % tuple(chain.from_iterable(enumerate(series)))


def _csv(r: Report, basis: Basis | None) -> Iterator[str]:
    """Pieces of the CSV form in write order, header first, each line ending
    in its own newline; a listing writes each degree's rows, joined by
    ``\\nd,``, as the pieces of ``basis`` after the first row's prefix.

    No field ever holds a comma, a double quote, a carriage return or a
    newline: fields are integers, fixed names, ``true``/``false``, monomial
    and word names (``Q^``, ``bQ^``, letters, digits, spaces, ``·``, ``^``,
    ``_`` and parentheses) and ``e_1^4``.  So the minimal quoting of the
    standard ``csv`` writer would never apply, and joining the fields with
    commas gives its bytes.
    """
    if r.verdicts is not None:
        yield "check,passed\n"
        yield from (f"{v.name},{str(v.passed).lower()}\n" for v in r.verdicts)
    elif r.witness is not None:
        yield "name,value\n"
        yield from (f"source_{i},{s}\n" for i, s in enumerate(_sources(r.witness), 1))
        yield f"image,{r.witness.image}\n"
    elif r.scalar_name is not None:
        yield from ("name,value\n", f"{r.scalar_name},{r.series[0]}\n")
    elif basis is not None:
        yield "degree,monomial\n"
        for d, pieces in enumerate(basis(lambda d: f"\n{d},")):
            if pieces:
                yield from (f"{d},", *pieces, "\n")
    else:
        yield from ("degree,coefficient\n", _rows("%d,%d\n", r.series))


def _table(r: Report, basis: Basis | None) -> Iterator[str]:
    """Pieces of the table form, in write order, split as ``_csv``'s."""
    if r.verdicts is not None:
        yield from (f"{'PASS' if v.passed else 'FAIL'}  {v.name}"
                    + (f"  ({v.detail})\n" if v.detail else "\n") for v in r.verdicts)
    elif r.witness is not None:
        yield from (f"source  {s}\n" for s in _sources(r.witness))
        yield f"image   {r.witness.image}\n"
    elif r.scalar_name is not None:
        yield f"{r.series[0]}\n"
    elif basis is not None:
        yield "degree  monomials\n"
        for d, pieces in enumerate(basis(lambda d: ", ")):
            yield from (f"{d:>6}  ", *(pieces or ["-"]), "\n")
    else:
        yield from ("degree  coefficient\n", _rows("%6d  %d\n", r.series))
        if r.homotopy is not None:
            first = r.homotopy.first_positive_nonzero_degree
            yield from (
                "\n",
                f"# gap_verified: {str(r.homotopy.gap_verified).lower()}\n",
                f"# first_positive_nonzero_degree: {first if first is not None else '-'}\n",
            )
        if r.cotangent is not None:
            cotangent = ",".join(map(str, r.cotangent.coefficients))
            yield from ("\n", f"# cotangent_series: {cotangent}\n")


def _json_array(items: list[str], indent: str = "\n  ") -> list[str]:
    """The pieces of an array of the escaped but unquoted strings ``items``,
    one a line one level below ``indent``, joined once inside their quotes."""
    if not items:
        return ["[]"]
    inner = indent + "  "
    return ["[" + inner + '"', ('",' + inner + '"').join(items), '"' + indent + "]"]


def _json_parts(r: Report, basis: Basis | None, encode) -> Iterator[str]:
    """The pieces, in write order, of the envelope as ``json.dumps(document,
    indent=2) + "\\n"`` writes it: prime, max_degree, kind, series, then basis
    (``basis``, its names JSON-escaped, one object per degree), witness and
    the verify verdicts, assumptions, and last the homotopy verdicts or the
    cotangent series.  ``encode`` is the C string encoder, which
    ``json.dumps`` with an indent would not use."""

    def verdicts(rows: list[tuple]) -> Iterator[str]:
        yield ',\n  "verdicts": '
        for i, (name, passed, detail) in enumerate(rows):
            yield from (("," if i else "[") + '\n    {\n      "name": ', encode(name),
                        ',\n      "passed": ', "true" if passed else "false",
                        "" if detail is None else ',\n      "detail": ' + encode(detail), "\n    }")
        yield "\n  ]" if rows else "[]"

    yield f'{{\n  "prime": {r.prime},\n  "max_degree": {r.max_degree},\n  "kind": '
    yield from (encode(r.kind), ',\n  "series": ', *_json_array(list(map(str, r.series))))
    if basis is not None:
        yield ',\n  "basis": '
        # Degree 0 always holds the empty monomial, so the array opens there.
        for d, pieces in enumerate(basis(lambda d: '",\n        "')):
            yield ("," if d else "[") + f'\n    {{\n      "degree": {d},\n      "monomials": '
            yield from ('[\n        "', *pieces, '"\n      ]') if pieces else ("[]",)
            yield "\n    }"
        yield "\n  ]"
    if r.witness is not None:
        yield ',\n  "witness": {\n    "sources": '
        yield from _json_array([encode(s)[1:-1] for s in _sources(r.witness)], "\n    ")
        yield from (',\n    "image": ', encode(r.witness.image), "\n  }")
    if r.verdicts is not None:
        yield from verdicts([(v.name, v.passed, v.detail) for v in r.verdicts])
    yield ',\n  "assumptions": '
    yield from _json_array([encode(s)[1:-1] for s in r.assumptions])
    if r.homotopy is not None:
        h = r.homotopy
        yield from verdicts([("gap", h.gap_verified, None),
                             ("tensor_identity", h.tensor_identity, None),
                             ("nonnegativity", h.nonnegative, None)])
    if r.cotangent is not None:
        yield ',\n  "cotangent_series": '
        yield from _json_array(list(map(str, r.cotangent.coefficients)))
    yield "\n}\n"


def render(report: Report, fmt: str) -> Iterable[str]:
    """``report`` as table, json or csv text: its pieces in write order,
    written straight from the report's fields, a listing's built one degree
    at a time as they are read, in that form's encoding.  JSON escaping maps
    each character on its own, so escaping each piece of a name once escapes
    every name that holds it.  Raises VerificationError, before any piece
    exists, when the listing disagrees with the series."""
    if fmt == "json":  # only JSON output pays for loading the package
        from json.encoder import encode_basestring_ascii as encode
        return _json_parts(report, _basis(report, lambda s: encode(s)[1:-1]), encode)
    return (_csv if fmt == "csv" else _table)(report, _basis(report))


# Most monomials a listing report may hold; the series gives the exact count
# before anything is enumerated.
MAX_LISTED_MONOMIALS = 1_000_000


# Highest degree a series report may be asked for. At p = 2 the slowest one,
# verify, takes 0.32 s and 17 MB at this degree (best of 3 processes, 2-core
# x86-64, Python 3.11.7), and 1.6 s and 21 MB in process at twice it, nearly
# all in the homology fold, whose big-integer products grow about five times
# with each doubling of the degree.
MAX_SERIES_DEGREE = 4000


class ListingTooLarge(Exception):
    """A listing report would hold more than MAX_LISTED_MONOMIALS monomials."""


def _with_basis(kind: str, p: int, n: int, series: TruncatedSeries,
                generators: Callable[[], list[tuple[int, str, str]]], **parts) -> Report:
    """A listing report, whose basis ``render`` lists and checks against the
    series.  ``generators()`` gives the basis's generators as the sorted
    (degree, label, kind) rows ``free_algebra.joined_names`` takes, so no
    ``Generator`` is built.  Raises ListingTooLarge, before building the
    rows, when the series predicts more than MAX_LISTED_MONOMIALS monomials;
    each generator is a monomial, so ``generators()`` then builds no more."""
    predicted = sum(series.coefficients)
    if predicted > MAX_LISTED_MONOMIALS:
        raise ListingTooLarge(
            f"{kind} through degree {n} would list {predicted} monomials,"
            f" more than the limit of {MAX_LISTED_MONOMIALS}"
        )
    return Report(kind, p, n, series.coefficients, generators=tuple(generators()), **parts)


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
        lambda: generator_rows(p, 1, n),
    ),
    "steenrod": lambda p, n: _with_basis(
        "steenrod", p, n, versal.steenrod_series(p, n),
        lambda: milnor_generator_rows(p, n),
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
        lambda: generator_rows(2, 1, 4),
        witness=versal.structure_map_collision(),
    ),
    "verify": _verify,
}


FORMATS = ("table", "json", "csv")


@cache
def _parser():
    """The argparse parser, built on first use: importing argparse (and
    through it gettext and locale) costs a launch milliseconds, and a
    well-formed call needs none of it (``_parse``).  argparse exits with
    status 2 on usage errors; this tool reserves 2 for verification
    failures, so usage errors exit 1 instead."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = Parser(prog="versalp", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--prime", type=int, help="required except for collision (p=2)")
    parser.add_argument("--max-degree", type=int, help="truncation degree, default 4(p-1)")
    parser.add_argument("--format", choices=FORMATS, default="table")
    parser.add_argument("--output", help="path, default stdout")
    return parser


_OPTIONS = frozenset(("--prime", "--max-degree", "--format", "--output"))


def _parse(argv: Sequence[str]) -> tuple | None:
    """(command, prime, max_degree, format, output) as ``_parser()``'s
    ``parse_args`` gives them for an argv of the canonical shape: the
    subcommand, then pairs of an option spelled out in full, each at most
    once, and a value that is non-empty, does not start with ``-`` and
    converts as the option's type and choices do.  None for every other
    argv (help, abbreviations, ``--opt=value``, repeats, ``--``, negative
    numbers, bad values), which only argparse parses, so that its help,
    usage and error text stay the only ones."""
    if len(argv) % 2 == 0 or argv[0] not in COMMANDS:
        return None
    options = dict(zip(argv[1::2], argv[2::2]))
    if (2 * len(options) != len(argv) - 1 or not options.keys() <= _OPTIONS
            or any(not v or v[0] == "-" for v in options.values())):
        return None
    fmt = options.get("--format", "table")
    if fmt not in FORMATS:
        return None
    prime, max_degree = options.get("--prime"), options.get("--max-degree")
    try:
        prime = None if prime is None else int(prime)
        max_degree = None if max_degree is None else int(max_degree)
    except ValueError:
        return None
    return argv[0], prime, max_degree, fmt, options.get("--output")


def main(argv: "Sequence[str] | None" = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parsed = _parse(argv)
    if parsed is None:
        args = _parser().parse_args(argv)
        parsed = args.command, args.prime, args.max_degree, args.format, args.output
    command, prime, max_degree, fmt, output = parsed

    if prime is None:
        if command != "collision":
            _parser().error("the following arguments are required: --prime")
        prime = 2
    if prime >= PRIME_LIMIT:
        _parser().error(f"--prime must be below {PRIME_LIMIT}, got {prime}")
    if not is_prime(prime):
        _parser().error(f"--prime must be prime, got {prime}")
    if command == "collision" and prime != 2:
        _parser().error("collision is a p=2 report")
    if max_degree is not None and max_degree < 0:
        _parser().error(f"--max-degree must be >= 0, got {max_degree}")
    # collision ignores the degree: its report is pinned at p = 2, degree 4
    n = 4 * (prime - 1) if max_degree is None else max_degree
    # verify's fixed-scale checks read a report at 4(p-1) whatever the degree asked
    top = max(n, 4 * (prime - 1)) if command == "verify" else n
    if top > MAX_SERIES_DEGREE and command not in ("collision", "equivalences"):
        _parser().error(f"{command} through degree {top} is over the limit of {MAX_SERIES_DEGREE}")
    if command == "hz-compare" and n < 2 * prime - 2:
        _parser().error(f"hz-compare needs --max-degree >= {2 * prime - 2} at p={prime}")

    try:
        report = COMMANDS[command](prime, n)
        parts = render(report, fmt)
    except versal.VerificationError as exc:
        print(f"versalp: verification failed: {exc}", file=sys.stderr)
        return 2
    except ListingTooLarge as exc:
        print(f"versalp: error: {exc}", file=sys.stderr)
        return 1

    try:
        if output is None:
            _write_stdout(parts)
        else:
            # Binary, so no platform's newline translation touches the bytes.
            with open(output, "wb") as fh:
                fh.writelines(map(str.encode, parts))
    except OSError as exc:
        target = "stdout" if output is None else output
        print(f"versalp: error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 2 if report.failed else 0


def _write_stdout(parts: Iterable[str]) -> None:
    """``parts`` on stdout as the UTF-8 bytes --output writes, whatever the
    locale's encoding, flushed, so that a failed write raises OSError here.
    A text stream without a binary buffer (an in-process ``StringIO``), whose
    caller keeps the whole text anyway, takes it joined in one write.

    After a failure, file descriptor 1 points at the null device: the
    interpreter flushes stdout again at exit, and the bytes the stream still
    holds must not fail a second time.  A stdout closed at start-up is None,
    and fails as an unwritable one."""
    out = sys.stdout
    if out is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    try:
        buffer = getattr(out, "buffer", None)
        if buffer is None:
            out.write("".join(parts))
            out.flush()
        else:
            out.flush()
            buffer.writelines(map(str.encode, parts))
            buffer.flush()
    except OSError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, out.fileno())
        os.close(null)
        raise


if __name__ == "__main__":
    sys.exit(main())
