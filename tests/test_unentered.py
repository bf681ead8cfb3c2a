"""The functions of ``src/strata`` that no command line enters.

The golden flag matrix (``record_cli_golden.command_lines()``) and the pinned
refusals (``test_document_cli.REFUSALS``) run in-process under a
``sys.settrace`` hook that records each function call.  Every function defined
in ``src/strata`` (class bodies, lambdas and comprehensions aside) that none of
them enters is listed in ``UNENTERED`` with the kind of reason it may stay so:

- ``library-api``: declared library API (``LIBRARY_API`` in
  ``test_source_rules.py``), or a helper only that API calls;
- ``error-path``: runs only on an input no fixture or refusal carries;
- ``dunder``: a special method no verdict calls, or a path only one takes;
- ``tracer-bound``: kept for the benchmark's traced run (``bench/tracing.py``),
  which wraps it or the ``strata.cli`` bindings it makes.

A command line that starts entering a listed function, or stops entering
another, changes the list on purpose.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import sys

from record_cli_golden import ROOT, command_lines
from strata.cli import main
from test_document_cli import REFUSALS, _variant

KINDS = ("library-api", "error-path", "dunder", "tracer-bound")

UNENTERED = {
    "cli._on_call": "tracer-bound: makes the ten bindings the tracer wraps, when strata.cli loads",
    "document._missing": "error-path: a ratio without its q",
    "equations.DecomposeResult.components": "library-api",
    "equations.ProportionalityData.__bool__": "dunder",
    "equations.ProportionalityData.entries": "library-api",
    "equations.ProportionalityData.ratio": "library-api",
    "equations._checked": "library-api: decompose",
    "equations._match_top_restriction": "library-api: decompose",
    "equations._minimal_correlated_within": "library-api: decompose and primitive_sets",
    "equations._scaled_to": "library-api: decompose; aim's split, which no fixture reaches",
    "equations.decompose": "library-api",
    "equations.primitive_sets": "library-api",
    "equations.residue_relation": "library-api",
    "errors.DocumentParseError.__init__": "error-path: a document that does not parse",
    "gaussian.GaussianRational.__repr__": "dunder",
    "gaussian.GaussianRational.__rsub__": "dunder",
    "gaussian.GaussianRational.__rtruediv__": "dunder",
    "gaussian.GaussianRational.__setattr__": "dunder",
    "gaussian.GaussianRational.as_fraction": "library-api",
    "gaussian.GaussianRational.im": "dunder: read only by __repr__",
    "gaussian.GaussianRational.re": "dunder: read only by __repr__",
    "gaussian._imag_str": "dunder: __str__ of a value with an imaginary part",
    "gaussian.parse_rational": "library-api",
    "homology.AdaptedBasis.pairing": "error-path: a basis element paired against the wrong edges",
    "homology.Cycle.__eq__": "dunder",
    "homology.Cycle.__neg__": "dunder",
    "homology.Cycle.__repr__": "dunder",
    "homology.Cycle.to_vector": "tracer-bound: the traced run reads it",
    "homology.picard_lefschetz": "library-api",
    "level_graph.Undegeneration.make": "library-api",
    "level_graph.passage_weight": "library-api",
    "linalg.bareiss_det": "tracer-bound: the traced run wraps it; int_singular's fallback on shared leads",
    "plumbing.SmoothingWitness.render": "library-api: can_smooth's witness",
    "plumbing.can_smooth": "library-api",
}


def _defined() -> dict[tuple[str, str], str]:
    """(file, qualified name) -> ``<module>.<qualified name>`` of every function
    ``src/strata`` defines, nested ones included."""
    out = {}
    for path in sorted((ROOT / "src" / "strata").glob("*.py")):
        module = sys.modules["strata" if path.stem == "__init__" else f"strata.{path.stem}"]
        stack = [compile(path.read_text(), module.__file__, "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if inspect.iscode(c)]
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                out[code.co_filename, code.co_qualname] = f"{path.stem}.{code.co_qualname}"
    return out


def _entered(tmp_path) -> set[tuple[str, str]]:
    """(file, qualified name) of every function the command lines call."""
    entered = set()

    def hook(frame, event, arg):
        entered.add((frame.f_code.co_filename, frame.f_code.co_qualname))

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for command, name, *flags in command_lines():
                main([command, str(ROOT / name), *flags])
            for (command, fixture, *flags), edit, *_ in REFUSALS.values():
                path = _variant(tmp_path, edit, fixture)
                main([command, path, *flags])
                main([command, path, *flags, "--json"])
    finally:
        sys.settrace(previous)
    return entered


def test_the_functions_no_command_line_enters_are_the_listed_ones(tmp_path, monkeypatch):
    monkeypatch.setattr("strata.cli._parser", None)  # so the first call builds it, as in a new process
    entered = _entered(tmp_path)  # first: the commands load every module _defined reads
    defined = _defined()
    assert sorted([name for key, name in defined.items() if key not in entered]) == sorted(UNENTERED)


def test_every_unentered_function_says_why():
    assert [name for name, why in UNENTERED.items() if why.split(":")[0] not in KINDS] == []
