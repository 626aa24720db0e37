"""Record the expected stdout of every query the benchmark can draw.

    python3 bench/record_expected.py

Adds to bench/expected.json the SHA-256 of each query's stdout bytes, and
the homology series that basis reports are checked against. It only adds
what is missing and never rewrites a recorded entry: the recorded bytes are
the reference every later commit must reproduce. A report is recorded only
if it exits 0 and passes the structural checks.
"""

from __future__ import annotations

import hashlib
import json
import sys

from checks import HOMOLOGY, SHA256, query_key, structural
from run import EXPECTED, SRC, run_report
from workloads import SETUP_ARGV, WORKLOADS, query_space


def main() -> int:
    sys.path.insert(0, str(SRC))
    from versalp import cli

    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {SHA256: {}, HOMOLOGY: {}}
    for w in WORKLOADS.values():
        if w.command != "basis":
            continue
        for p, _, hi, _ in w.ranges:
            if str(p) not in expected[HOMOLOGY]:
                argv = ["homology", "--prime", str(p), "--max-degree", str(hi), "--format", "json"]
                _, status, stdout = run_report(cli.main, argv)
                if status != 0:
                    raise SystemExit(f"{query_key(argv)}: exit status {status!r}")
                expected[HOMOLOGY][str(p)] = json.loads(stdout)["series"]
    homology = {int(p): [int(c) for c in s] for p, s in expected[HOMOLOGY].items()}

    added = 0
    for argv in [SETUP_ARGV, *(q for w in WORKLOADS.values() for q in query_space(w))]:
        key = query_key(argv)
        if key in expected[SHA256]:
            continue
        _, status, stdout = run_report(cli.main, argv)
        reason = f"exit status {status!r}" if status != 0 else structural(argv, stdout.decode("utf-8"), homology)
        if reason is not None:
            raise SystemExit(f"{key}: {reason}")
        expected[SHA256][key] = hashlib.sha256(stdout).hexdigest()
        added += 1
    expected[SHA256] = dict(sorted(expected[SHA256].items()))
    EXPECTED.write_text(json.dumps(expected, indent=0) + "\n")
    print(f"recorded {added} new queries, {len(expected[SHA256])} in all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
