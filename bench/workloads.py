"""Seeded query lists for the benchmark workloads.

A workload cuts each of its (prime, degree) ranges into strata and draws one
``--max-degree`` per stratum from the seed, so every seed covers the whole
range evenly and the mix of cheap and expensive reports barely moves between
seeds. The program only ever sees the resulting argv lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FORMATS = ("table", "json", "csv")

# The smallest report; a fresh interpreter answering it is the set-up time.
SETUP_ARGV = ("equivalences", "--prime", "2")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    # (prime, lowest degree, highest degree, strata)
    ranges: tuple[tuple[int, int, int, int], ...]
    # Run each drawn degree in every format rather than in one drawn format:
    # this keeps the format mix equal in every seed, which matters where
    # rendering is a large part of the cost.
    every_format: bool
    # Spans expected to hold at least this share of traced self time.
    dominant: tuple[tuple[str, ...], float]


WORKLOADS = {
    w.name: w
    for w in (
        # Admissible words grow exponentially at p = 2 (1,850 at N = 100,
        # 13,801 at N = 200): word enumeration, labelling and the product
        # over generators are nearly all of the time, division almost none.
        Workload(
            "homotopy-p2",
            "homotopy",
            ((2, 100, 200, 34),),
            True,
            (("dyer_lashof.generator_words", "dyer_lashof.enumerate_generators",
              "power_series.product_over_generators"), 0.80),
        ),
        # Odd primes keep word counts moderate at large N, so the O(N^2)
        # big-integer division, the multiply-back and the battery's repeated
        # homology series dominate. Ranges grow with p to keep the cost even.
        Workload(
            "verify-odd",
            "verify",
            ((3, 200, 340, 34), (5, 350, 650, 34), (7, 450, 850, 34)),
            False,
            (("power_series.product_over_generators", "power_series.div", "power_series.mul"), 0.5),
        ),
        # Output-heavy: monomial enumeration and rendering, with series work
        # small. Output grows ~50% per degree, so every degree in range is
        # run, in every format, and the seed only orders them.
        Workload(
            "basis-render",
            "basis",
            ((2, 16, 27, 12), (3, 36, 58, 23)),
            True,
            (("free_algebra.enumerate_monomials", "cli.main"), 0.5),
        ),
    )
}


def report_argv(command: str, prime: int, degree: int, fmt: str) -> tuple[str, ...]:
    return (command, "--prime", str(prime), "--max-degree", str(degree), "--format", fmt)


def queries(workload: Workload, seed: int) -> list[tuple[str, ...]]:
    """The workload's query list for ``seed``: one degree per stratum, in
    shuffled order. The same seed always gives the same list."""
    rng = random.Random(f"{workload.name}:{seed}")
    out = []
    for prime, lo, hi, strata in workload.ranges:
        width = hi - lo + 1
        for i in range(strata):
            degree = rng.randint(lo + width * i // strata, lo + width * (i + 1) // strata - 1)
            formats = FORMATS if workload.every_format else (rng.choice(FORMATS),)
            out.extend(report_argv(workload.command, prime, degree, f) for f in formats)
    rng.shuffle(out)
    return out


def query_space(workload: Workload) -> list[tuple[str, ...]]:
    """Every query any seed can draw for ``workload``."""
    return [
        report_argv(workload.command, prime, degree, fmt)
        for prime, lo, hi, _ in workload.ranges
        for degree in range(lo, hi + 1)
        for fmt in FORMATS
    ]
