"""Which library modules a fresh `strata` process loads, and the bindings the
benchmark's tracer reads off `strata.cli`.

`aim`, `deformation` and `plumbing` are imported by the command that calls them,
so a cold `validate` or `analyze` never compiles them.  `strata.cli` keeps a
module-level forwarder for each of their calls the tracer wraps.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from strata.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
DEFERRED = ("strata.aim", "strata.deformation", "strata.plumbing")


def _fresh(probe: str) -> str:
    """Stdout of ``probe`` run in a new interpreter that imports ``strata`` from this tree."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return proc.stdout


def _deferred_loaded_after(argv: list[str] | None) -> str:
    """The sorted list of deferred modules in ``sys.modules`` after ``build_parser()``,
    or after ``main(argv)``, as printed."""
    call = "strata.cli.build_parser()" if argv is None else f"strata.cli.main({argv!r})"
    probe = (
        "import contextlib, io, sys\n"
        "import strata.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {call}\n"
        f"print(sorted(set({DEFERRED!r}) & set(sys.modules)))\n"
    )
    return _fresh(probe)


@pytest.mark.parametrize(
    "command, fixture, loaded",
    [
        pytest.param(None, None, [], id="build_parser"),
        pytest.param("validate", "intro_two_level", [], id="validate"),
        pytest.param("analyze", "intro_two_level", [], id="analyze"),
        pytest.param("analyze", "triple_node_cover", ["strata.aim"], id="analyze-symplectic"),
        pytest.param("plumb", "intro_two_level", ["strata.plumbing"], id="plumb"),
        pytest.param("deform", "parallel_cylinders", ["strata.deformation"], id="deform"),
        pytest.param("aim", "triple_node_cover", ["strata.aim", "strata.deformation"], id="aim"),
    ],
)
def test_a_command_loads_only_the_modules_it_calls(command, fixture, loaded):
    argv = None if command is None else [command, str(FIXTURES / f"{fixture}.json")]
    assert _deferred_loaded_after(argv) == f"{loaded}\n"


def _tracer_calls() -> list[str]:
    bench = str(ROOT / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import tracing

    return list(tracing.CLI_CALLS)


def test_every_traced_call_is_a_cli_binding_before_any_command_runs():
    # A dense-complex traced run never loads `aim`, so the tracer reads these
    # bindings off a `strata.cli` that has only been imported.
    names = _tracer_calls()
    probe = (
        "import sys\n"
        "import strata.cli\n"
        "namespace = vars(strata.cli)\n"
        f"print([n for n in {names!r} if not callable(namespace.get(n))])\n"
        f"print(sorted(set({DEFERRED!r}) & set(sys.modules)))\n"
    )
    assert _fresh(probe) == "[]\n[]\n"


def test_the_forwarders_look_their_call_up_at_each_call(monkeypatch, capsys):
    from strata import aim, plumbing

    calls = []

    def spy(original):
        def counted(*args, **kwargs):
            calls.append(original.__name__)
            return original(*args, **kwargs)

        return counted

    monkeypatch.setattr(plumbing, "convert", spy(plumbing.convert))
    monkeypatch.setattr(aim, "tangent_absolute", spy(aim.tangent_absolute))
    path = str(FIXTURES / "triple_node_cover.json")
    assert main(["plumb", path]) == 0
    assert calls == ["convert"]
    assert main(["aim", path]) == 0
    capsys.readouterr()
    assert calls[1:] and set(calls[1:]) == {"tangent_absolute"}
