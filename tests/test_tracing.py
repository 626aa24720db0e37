"""The benchmark's tracer (bench/tracing.py) wraps library functions under the
names their callers bind, so renaming or deleting one of those names breaks
the benchmark, not the library.  This runs one traced report of each kind the
benchmark's workloads draw and checks that the tracer still finds every name
and puts every original back."""

from pathlib import Path

import pytest

from versalp import cli, dyer_lashof, free_algebra, versal
from versalp.power_series import TruncatedSeries

BENCH = Path(__file__).resolve().parents[1] / "bench"

TRACED = (cli, dyer_lashof, free_algebra, versal, TruncatedSeries)

ARGVS = (
    ["homotopy", "--prime", "2", "--max-degree", "40"],
    ["verify", "--prime", "3", "--max-degree", "60"],
    ["basis", "--prime", "2", "--max-degree", "12", "--format", "json"],
)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    return tracing


def test_traced_reports_run_and_every_original_comes_back(tracing, capsys):
    untraced = []
    for argv in ARGVS:
        assert cli.main(argv) == 0
        untraced.append(capsys.readouterr().out)
    before = [dict(vars(owner)) for owner in TRACED]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer) as main:
        for calls, argv in enumerate(ARGVS, 1):
            assert main(argv) == 0, argv
            assert tracer.reports == calls, argv
            assert capsys.readouterr().out == untraced[calls - 1], argv
    after = [dict(vars(owner)) for owner in TRACED]
    for owner, old, new in zip(TRACED, before, after):
        changed = sorted(name for name in old.keys() | new.keys()
                         if old.get(name) is not new.get(name))
        assert not changed, (owner.__name__, changed)


# Points of the benchmark's verify-odd workload, and one below 4(p - 1), whose
# report makes a second homology call at 4(p - 1).
VERIFY_ARGVS = (
    ["verify", "--prime", "3", "--max-degree", "340"],
    ["verify", "--prime", "5", "--max-degree", "650"],
    ["verify", "--prime", "7", "--max-degree", "850"],
    ["verify", "--prime", "7", "--max-degree", "5"],
)


def test_a_traced_verify_run_reads_its_per_layer_metrics(tracing, capsys):
    # The metrics divide by the number of homology calls, so a report that
    # reached the homology by another name would stop the benchmark's trace.
    tracer = tracing.Tracer()
    with tracing.instrument(tracer) as main:
        for argv in VERIFY_ARGVS:
            assert main(argv) == 0, argv
    capsys.readouterr()
    metrics = tracing.metrics(tracer, 1.0, 0, 0.0)
    assert metrics["versal.homology_series.calls"] == (5 / 4, "count")
    assert metrics["versal.homology_series.useful_ratio"] == (1.0, "ratio")
