"""Re-record ``digests.json``: the stdout sha256 of every verdict a run can ask for.

    PYTHONPATH=src python3 bench/record_digests.py

Runs every fixture operation and every operation on every pool document
in-process, refuses to record if any verdict misses its exit code or known
answer, and rewrites ``bench/digests.json``.  Digests pin the byte-identical
output contract, so re-record only in a change that edits nothing but the
benchmark, and say why in that change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import checks
import generators as gen
import workloads
from harness import verdict
from run import ROOT, import_strata


def all_ops(workdir: str) -> list:
    ops = workloads.fixtures_cli(ROOT).ops
    for name, (sizes, make_document, make_ops, file_name) in workloads.GENERATED.items():
        for size in sizes:
            for index in range(gen.POOL_SIZE):
                path = os.path.join(workdir, f"{index:02d}-" + file_name.format(size))
                gen.write_document(make_document(size, index), path)
                ops += make_ops(path, size, index)
    return ops


def record() -> int:
    main = import_strata()
    digests, failures = {}, []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-record-") as workdir:
        for op in all_ops(workdir):
            _, out, problems = verdict(main, op, None)
            if problems:
                failures.append(f"{op.key}: {'; '.join(problems)}")
            digests[op.key] = checks.stdout_digest(out)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        print(f"not recorded: {len(failures)} verdicts miss their known answer", file=sys.stderr)
        return 1
    with open(checks.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, sort_keys=True, indent=1)
        handle.write("\n")
    print(f"recorded {len(digests)} digests in {os.path.relpath(checks.DIGESTS_PATH, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(record())
