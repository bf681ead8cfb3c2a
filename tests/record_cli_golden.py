"""Record ``tests/cli_golden.txt``: the exit code and stdout sha256 of the flag matrix.

Each fixture runs under every command with no flag, ``--json``,
``--assume-theorems``, ``--limit 0`` and ``--limit 2``; ``aim`` also runs
``--decompose 0`` to ``5`` (text and ``--json``) and ``--pairwise-cross`` on each
pair of the fixture's first four horizontal edges.  Every command line runs
in-process through ``strata.cli.main``.  A golden line is ``<exit> <sha256>
<argv>``, with the document named relative to the repository root.
``tests/test_cli_golden.py`` compares the current code against the file.

    PYTHONPATH=src python tests/record_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from itertools import combinations
from pathlib import Path

from strata.cli import main
from strata.document import load_document

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.txt"
COMMANDS = ("validate", "analyze", "plumb", "deform", "aim")
FLAGS = ((), ("--json",), ("--assume-theorems",), ("--limit", "0"), ("--limit", "2"))


def command_lines() -> list[tuple[str, ...]]:
    """Every command line of the matrix, with the document relative to the root."""
    out = []
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        name = str(path.relative_to(ROOT))
        out += [(command, name, *flags) for command in COMMANDS for flags in FLAGS]
        out += [("aim", name, "--decompose", str(row), *json) for row in range(6) for json in ((), ("--json",))]
        horizontal = load_document(str(path)).graph.horizontal_edges[:4]
        out += [("aim", name, "--pairwise-cross", a, b) for a, b in combinations(horizontal, 2)]
    return out


def golden_line(argv: tuple[str, ...]) -> str:
    """``<exit> <stdout sha256> <argv>`` of one in-process run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([argv[0], str(ROOT / argv[1]), *argv[2:]])
    return f"{code} {hashlib.sha256(buf.getvalue().encode()).hexdigest()} {' '.join(argv)}"


if __name__ == "__main__":
    lines = [golden_line(argv) for argv in command_lines()]
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} lines to {GOLDEN.relative_to(ROOT)}")
