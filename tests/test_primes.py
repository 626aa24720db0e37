import time

import pytest

from versalp import cli
from versalp.primes import PRIME_LIMIT, is_prime, require_prime

from oracles import trial_division_is_prime


def test_agrees_with_trial_division_below_10_5():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if trial_division_is_prime(n)
    ]


# The least strong pseudoprimes to the prime bases 2..7 and 2..23.
@pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
def test_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_large_primes():
    assert is_prime(2**61 - 1) and is_prime(10**18 + 3)
    assert not is_prime((10**9 + 7) * (10**9 + 9))


def test_no_answer_at_or_above_the_limit():
    # the limit itself is the least strong pseudoprime to all 13 bases
    for n in (PRIME_LIMIT, PRIME_LIMIT + 2, 2**89 - 1):
        with pytest.raises(ValueError):
            is_prime(n)
    with pytest.raises(ValueError):
        require_prime(PRIME_LIMIT)


def test_cli_answers_a_huge_prime_at_once(capsys):
    start = time.perf_counter()
    code = cli.main(["equivalences", "--prime", "1000000000000000003"])
    elapsed = time.perf_counter() - start
    assert (code, capsys.readouterr().out) == (0, "1000000000000000002\n")
    assert elapsed < 1.0


def test_cli_prime_at_or_above_the_limit_is_a_usage_error(capsys):
    for p in (PRIME_LIMIT, 10**30):
        with pytest.raises(SystemExit) as exc:
            cli.main(["equivalences", "--prime", str(p)])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"--prime must be below {PRIME_LIMIT}" in err
