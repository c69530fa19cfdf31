"""Record the stdout sha256 of every invocation a workload can run.

    python3 bench/record_digests.py

Writes digests.json, which run.py compares every output against.  Run it
only at a commit whose output is the reference: a later change that
alters a byte of stdout then shows as a failed invocation.
"""

import hashlib
import json

import run

WORKLOADS = ("cx-wide", "cx-long", "lemma5-p211")


def main() -> None:
    invs = [run.batch_pair(q, p) for q, p in run.BATCH_PAIRS]
    invs += [run.workload("cx-batch", 0)[-1]]  # the falsified run
    invs += [inv for name in WORKLOADS for inv in run.workload(name, 0)]
    digests = {}
    for inv in invs:
        res = run.spawn(["-c", run.CLI, *inv.argv])
        problems = inv.oracle(res.stdout)
        if res.exit != inv.expect_exit or problems:
            raise SystemExit(f"{inv.key}: exit {res.exit}, {problems}")
        digests[inv.key] = hashlib.sha256(res.stdout).hexdigest()
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
