"""Spans and counters around calls into each versalp layer.

The library itself is not instrumented. ``instrument`` replaces each layer's
public functions, under the names their callers look them up by, with
wrappers that record a span (name, start, end, parent, report) and the
layer's counters. ``versal`` and ``cli`` bind ``enumerate_generators`` and
``enumerate_monomials`` by name at import, so those names are wrapped in the
calling modules; wrapping only the defining module would miss their calls.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter, defaultdict
from time import perf_counter

# Spans grouped by the layer they time.
LAYERS = {
    "dyer_lashof": ("dyer_lashof.generator_words", "dyer_lashof.enumerate_generators"),
    "power_series": (
        "power_series.product_over_generators",
        "power_series.div",
        "power_series.mul",
    ),
    "free_algebra": ("free_algebra.series_of", "free_algebra.enumerate_monomials"),
    "versal": (
        "versal.homology_series",
        "versal.homotopy_series",
        "versal.verification_battery",
    ),
    "cli": ("cli.main",),
}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        # [name, start, end, parent span index or None, report id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.max_coeff_bits = 0
        self.reports = 0
        self._stack: list[int] = []
        self._homology_args: set = set()

    def wrap(self, fn, name: str, count=None):
        """``fn`` recording a span ``name``; ``count(tracer, args, result)``
        runs after the span closes."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else None, self.reports])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def main(self, cli_main):
        """``cli_main`` as the root span of a new report per call."""
        traced = self.wrap(cli_main, "cli.main")

        def report(argv):
            self.reports += 1
            self._homology_args = set()
            try:
                return traced(argv)
            finally:
                self.counts["versal.homology_series.distinct"] += len(self._homology_args)

        return report

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Total self time and call count per span name. Self time is a
        span's duration less the part its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            self_s[name] += end - start - child
            calls[name] += 1
        return self_s, calls

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, report in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "report": report}) + "\n")


def _words(tracer, args, words):
    tracer.counts["dyer_lashof.words"] += len(words)


def _bits(tracer, args, series):
    bits = max(map(abs, series.coefficients)).bit_length()
    tracer.max_coeff_bits = max(tracer.max_coeff_bits, bits)


def _folded(tracer, args, series):
    tracer.counts["power_series.generators_folded"] += len(args[0])
    _bits(tracer, args, series)


def _monomials(tracer, args, basis):
    tracer.counts["free_algebra.monomials"] += sum(basis.dimensions())


def _homology_args(tracer, args, series):
    tracer._homology_args.add(args)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer for the duration of the block, which receives the
    traced ``cli.main``; the original functions come back on exit."""
    from versalp import cli, dyer_lashof, free_algebra, versal
    from versalp.power_series import TruncatedSeries

    targets = (
        (dyer_lashof, "generator_words", "dyer_lashof.generator_words", _words),
        (versal, "enumerate_generators", "dyer_lashof.enumerate_generators", None),
        (cli, "enumerate_generators", "dyer_lashof.enumerate_generators", None),
        (free_algebra, "product_over_generators", "power_series.product_over_generators", _folded),
        (TruncatedSeries, "div", "power_series.div", _bits),
        (TruncatedSeries, "mul", "power_series.mul", _bits),
        (versal, "series_of", "free_algebra.series_of", None),
        (versal, "enumerate_monomials", "free_algebra.enumerate_monomials", _monomials),
        (cli, "enumerate_monomials", "free_algebra.enumerate_monomials", _monomials),
        (versal, "homology_series", "versal.homology_series", _homology_args),
        (versal, "homotopy_series", "versal.homotopy_series", None),
        (versal, "verification_battery", "versal.verification_battery", None),
    )
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets]
    try:
        for owner, attr, name, count in targets:
            setattr(owner, attr, tracer.wrap(vars(owner)[attr], name, count))
        yield tracer.main(cli.main)
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def metrics(tracer: Tracer, speed: float, output_bytes: int,
            overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run; times and counts are per report,
    and times are multiplied by ``speed`` like the reports' own."""
    self_s, calls = tracer.self_times()
    n = tracer.reports
    out: dict[str, tuple[float, str]] = {}
    for layer, names in LAYERS.items():
        if len(names) > 1:
            out[f"{layer}.self_s"] = (sum(self_s[s] for s in names) * speed / n, "s")
        for s in names:
            out[f"{s}.self_s"] = (self_s[s] * speed / n, "s")
            out[f"{s}.calls"] = (calls[s] / n, "count")
    for name in ("dyer_lashof.words", "power_series.generators_folded", "free_algebra.monomials"):
        out[name] = (tracer.counts[name] / n, "count")
    out["power_series.max_coeff_bits"] = (tracer.max_coeff_bits, "bits")
    out["versal.homology_series.useful_ratio"] = (
        tracer.counts["versal.homology_series.distinct"] / calls["versal.homology_series"], "ratio")
    out["cli.output_bytes"] = (output_bytes / n, "bytes")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
