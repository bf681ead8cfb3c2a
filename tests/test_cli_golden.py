"""Byte-identical CLI output across the flag matrix, pinned by ``tests/cli_golden.txt``.

The benchmark digests cover only the no-flag and ``--json`` forms; this file
adds ``--assume-theorems``, ``--limit 0``, ``--limit 2``, ``aim --decompose``
on rows 0 to 5 and ``aim --pairwise-cross`` on every fixture.  Rerecord with
``tests/record_cli_golden.py`` only when an output is meant to change.
"""

from __future__ import annotations

from record_cli_golden import GOLDEN, command_lines, golden_line


def test_the_flag_matrix_matches_the_golden_file():
    recorded = GOLDEN.read_text().splitlines()
    lines = command_lines()
    assert [line.split(" ", 2)[2] for line in recorded] == [" ".join(argv) for argv in lines]
    assert [golden_line(argv) for argv in lines] == recorded
