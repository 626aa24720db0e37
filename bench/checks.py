"""Correctness checks on benchmark reports, made without calling versalp.

A report passes when it exited 0, its stdout bytes hash to the SHA-256
recorded for that query in ``expected.json`` (recorded once, when the
benchmark was added, and never regenerated), and its structure holds:

- every series has N + 1 coefficients;
- a homotopy series is nonnegative, opens with the gap pattern
  1, 0, ..., 0, 1 ending at degree 4(p - 1), and reports its gap verified;
- every verify check reads PASS;
- each basis bucket holds as many monomials as the recorded homology
  series coefficient of its degree.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

SHA256 = "sha256"
HOMOLOGY = "homology_series"


def query_key(argv) -> str:
    return " ".join(argv)


def _options(argv) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


def _csv_rows(text: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ValueError(f"csv header is not {header}")
    return rows[1:]


def _indexed(rows) -> list[int]:
    """Second column of (degree, value) rows whose degrees run 0, 1, 2, ..."""
    values = []
    for d, (degree, value) in enumerate(rows):
        if int(degree) != d:
            raise ValueError(f"row {d} is labelled degree {degree}")
        values.append(int(value))
    return values


def _homotopy(p: int, n: int, fmt: str, text: str) -> "str | None":
    if fmt == "json":
        doc = json.loads(text)
        coeffs = [int(c) for c in doc["series"]]
        if not all(v["passed"] for v in doc["verdicts"]):
            return "a homotopy verdict did not pass"
    elif fmt == "csv":
        coeffs = _indexed(_csv_rows(text, ["degree", "coefficient"]))
    else:
        body, _, trailer = text.partition("\n\n")
        lines = body.split("\n")
        if lines[0].split() != ["degree", "coefficient"]:
            raise ValueError("table header is not 'degree  coefficient'")
        coeffs = _indexed(line.split() for line in lines[1:])
        if "# gap_verified: true" not in trailer.split("\n"):
            return "table does not report the gap verified"
    if len(coeffs) != n + 1:
        return f"series has {len(coeffs)} coefficients, expected {n + 1}"
    negative = [d for d, c in enumerate(coeffs) if c < 0]
    if negative:
        return f"negative homotopy dimension in degree {negative[0]}"
    top = 4 * (p - 1)
    if coeffs[: top + 1] != [1] + [0] * (top - 1) + [1]:
        return f"series does not open with the gap pattern 1, 0, ..., 0, 1 at degree {top}"
    return None


def _verify(n: int, fmt: str, text: str) -> "str | None":
    if fmt == "json":
        doc = json.loads(text)
        if len(doc["series"]) != n + 1:
            return f"series has {len(doc['series'])} coefficients, expected {n + 1}"
        passed = [v["passed"] is True for v in doc["verdicts"]]
    elif fmt == "csv":
        passed = [passed == "true" for _, passed in _csv_rows(text, ["check", "passed"])]
    else:
        passed = [line.startswith("PASS  ") for line in text.splitlines()]
    if not passed or not all(passed):
        return "a verify check did not PASS"
    return None


def _basis(p: int, n: int, fmt: str, text: str, homology: dict[int, list[int]]) -> "str | None":
    series = homology.get(p, [])[: n + 1]
    if len(series) != n + 1:
        return f"no recorded homology series through degree {n} at p={p}"
    if fmt == "json":
        doc = json.loads(text)
        if [int(c) for c in doc["series"]] != series:
            return "series differs from the recorded homology series"
        sizes = []
        for d, bucket in enumerate(doc["basis"]):
            if bucket["degree"] != d:
                raise ValueError(f"bucket {d} is labelled degree {bucket['degree']}")
            sizes.append(len(bucket["monomials"]))
    elif fmt == "csv":
        sizes = [0] * (n + 1)
        for degree, _ in _csv_rows(text, ["degree", "monomial"]):
            d = int(degree)
            if not 0 <= d <= n:
                raise ValueError(f"monomial in degree {d}, outside 0..{n}")
            sizes[d] += 1
    else:
        lines = text.split("\n")
        if lines[0].split() != ["degree", "monomials"] or lines[-1] != "":
            raise ValueError("table is not a 'degree  monomials' table")
        sizes = []
        for d, line in enumerate(lines[1:-1]):
            if int(line[:6]) != d:
                raise ValueError(f"row {d} is labelled degree {line[:6].strip()}")
            cell = line[8:]
            sizes.append(0 if cell == "-" else cell.count(", ") + 1)
    if len(sizes) != n + 1:
        return f"basis has {len(sizes)} buckets, expected {n + 1}"
    for d, (size, coeff) in enumerate(zip(sizes, series)):
        if size != coeff:
            return f"degree {d} bucket holds {size} monomials, series says {coeff}"
    return None


def structural(argv, text: str, homology: dict[int, list[int]]) -> "str | None":
    """Why the report ``text`` for ``argv`` is malformed, or None."""
    command, opts = argv[0], _options(argv)
    p = int(opts["--prime"])
    try:
        if command == "equivalences":
            return None if text == f"{p - 1}\n" else f"equivalence count is not {p - 1}"
        n, fmt = int(opts["--max-degree"]), opts["--format"]
        if command == "homotopy":
            return _homotopy(p, n, fmt, text)
        if command == "verify":
            return _verify(n, fmt, text)
        if command == "basis":
            return _basis(p, n, fmt, text, homology)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed {command} report: {exc}"
    raise ValueError(f"no structural check for {command!r}")


def load_expected(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Checks reports against ``expected``, the parsed ``expected.json``."""

    def __init__(self, expected: dict):
        self.sha256 = expected[SHA256]
        self.homology = {int(p): [int(c) for c in s] for p, s in expected[HOMOLOGY].items()}
        # (query, digest) pairs whose structure already passed; equal bytes
        # give an equal verdict, so repeats only need the hash.
        self._passed: set[tuple[str, str]] = set()

    def check(self, argv, status, stdout: bytes) -> "str | None":
        """Why the report failed, or None when it is correct."""
        if status != 0:
            return f"exit status {status!r}"
        key = query_key(argv)
        want = self.sha256.get(key)
        if want is None:
            return "no recorded SHA-256 for this query"
        digest = hashlib.sha256(stdout).hexdigest()
        if digest != want:
            return "stdout differs from the recorded bytes"
        if (key, digest) in self._passed:
            return None
        reason = structural(argv, stdout.decode("utf-8"), self.homology)
        if reason is None:
            self._passed.add((key, digest))
        return reason
