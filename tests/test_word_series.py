"""The battery's recount: the series from the words themselves, one generator
per word through the forward kernel, against the closed-form counts and the
fold, and the faults on either side that ``verify`` must catch with it."""

import pytest

from versalp import cli, dyer_lashof
from versalp.dyer_lashof import _word_series, generator_series
from versalp.free_algebra import EXTERIOR, POLYNOMIAL
from versalp.power_series import TruncatedSeries

_fold_counts = dyer_lashof._fold_counts
generator_degree_counts = dyer_lashof.generator_degree_counts
_raw_words = dyer_lashof._raw_words
_kind = dyer_lashof._kind


# Far above the battery's caps, and at its caps and below 4(p - 1).
@pytest.mark.parametrize("p,classes,n", [
    (2, (1,), 200), (3, (1,), 1000), (5, (1,), 2000), (7, (1,), 3000), (13, (1,), 4000),
    (2, (1, 2), 100), (3, (1, 2), 400),
    (2, (1,), 0), (3, (1,), 1), (5, (1,), 20), (3, (1, 2), 0), (5, (1, 2), 10),
])
def test_word_series_is_the_generator_series(p, classes, n):
    assert _word_series(p, classes, n) == generator_series(p, classes, n)


def _fold_plus_one_at(degree):
    """``_fold_counts`` with one class too many in ``degree`` of the series;
    with ``over``, of the first series of the pair, the homology."""
    def plus_one(series):
        c = list(series.coefficients)
        if len(c) > degree:
            c[degree] += 1
        return TruncatedSeries(len(c) - 1, c)

    def fold(polynomial, exterior, over=None):
        if over is None:
            return plus_one(_fold_counts(polynomial, exterior))
        series, reduced = _fold_counts(polynomial, exterior, over)
        return plus_one(series), reduced
    return fold


def _thh_count_plus_one(p, gen_degree, max_degree):
    counts = generator_degree_counts(p, gen_degree, max_degree)
    if gen_degree == 2 and max_degree >= 9:
        counts[9] += 1
    return counts


def _single_entry_words(p, gen_degree, max_degree):
    return [(d, w) for d, w in _raw_words(p, gen_degree, max_degree) if len(w) < 2]


def _kind_swapped(p, degree):
    return POLYNOMIAL if _kind(p, degree) == EXTERIOR else EXTERIOR


# 4(p - 1) = 8 at p = 3: a fault above it leaves the gap and the low report
# as they are, so only the recount can see it.
MUTANTS = {
    "fold_plus_one_at_9": ("_fold_counts", _fold_plus_one_at(9), "basis_series_agreement"),
    "fold_plus_one_at_20": ("_fold_counts", _fold_plus_one_at(20), "basis_series_agreement"),
    "thh_count_plus_one": ("generator_degree_counts", _thh_count_plus_one, "thh_tensor"),
    "single_entry_words": ("_raw_words", _single_entry_words, "basis_series_agreement"),
    "kind_swapped": ("_kind", _kind_swapped, "basis_series_agreement"),
}

ARGV = ["verify", "--prime", "3", "--max-degree", "200"]


def test_verify_passes_without_a_mutant(capsys):
    assert cli.main(ARGV) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


@pytest.mark.parametrize("mutant", MUTANTS)
def test_verify_fails_under_a_mutant(monkeypatch, capsys, mutant):
    name, replacement, check = MUTANTS[mutant]
    monkeypatch.setattr(dyer_lashof, name, replacement)
    assert cli.main(ARGV) == 2
    assert f"FAIL  {check}" in capsys.readouterr().out
