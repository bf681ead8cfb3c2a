"""Which library modules a fresh `strata` process loads, and the bindings the
benchmark's tracer reads off `strata.cli`.

`aim`, `deformation` and `plumbing` are imported by the command that calls them,
so a cold `validate` or `analyze` never compiles them.  `strata.cli` keeps a
module-level forwarder for each of their calls the tracer wraps.  A document's
symplectic block and its periods block are held and checked by `symplectic` and
`periods`, which only documents carrying the block import.  `fractions` (with
`decimal` and `numbers`) loads only where a `Fraction` is built, and no command
builds one on a fixture or a bench pool document.  A document holds its ratios
and its deformations' r and s as integer pairs, and `deform` checks those pairs
as they are; `plumb` reads its exponents off the ints of its rational ratios,
and `aim` reads whether a class is declared parallel off the roots of the
ratio closure.  A `deform` with nothing to do loads no `deformation`, and a
ratio conflict is worded from the pairs too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from strata.cli import main
from support import bench_pool_documents

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
DEFERRED = ("strata.aim", "strata.deformation", "strata.plumbing")
FRACTIONS = ("decimal", "fractions")


def _fresh(probe: str) -> str:
    """Stdout of ``probe`` run in a new interpreter that imports ``strata`` from this tree."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return proc.stdout


def _loaded_after(argv: list[str] | None, watched=DEFERRED) -> str:
    """The sorted list of ``watched`` modules in ``sys.modules`` after ``build_parser()``,
    or after ``main(argv)``, as printed."""
    call = "strata.cli.build_parser()" if argv is None else f"strata.cli.main({argv!r})"
    probe = (
        "import contextlib, io, sys\n"
        "import strata.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {call}\n"
        f"print(sorted(set({tuple(watched)!r}) & set(sys.modules)))\n"
    )
    return _fresh(probe)


@pytest.mark.parametrize(
    "command, fixture, loaded",
    [
        pytest.param(None, None, [], id="build_parser"),
        pytest.param("validate", "intro_two_level", [], id="validate"),
        pytest.param("analyze", "intro_two_level", [], id="analyze"),
        pytest.param("analyze", "triple_node_cover", [], id="analyze-symplectic"),
        pytest.param("plumb", "intro_two_level", ["strata.plumbing"], id="plumb"),
        pytest.param("deform", "parallel_cylinders", ["strata.deformation"], id="deform"),
        pytest.param("aim", "triple_node_cover", ["strata.aim", "strata.deformation"], id="aim"),
    ],
)
def test_a_command_loads_only_the_modules_it_calls(command, fixture, loaded):
    argv = None if command is None else [command, str(FIXTURES / f"{fixture}.json")]
    assert _loaded_after(argv) == f"{loaded}\n"


@pytest.fixture(scope="module")
def pool_paths(tmp_path_factory) -> dict[str, str]:
    """One written document of each generated bench pool: dense-complex, and
    parallel-cylinders (which carries a symplectic block and ratios)."""
    documents = bench_pool_documents()
    picked = {
        "dense": next(d for d in documents if "symplectic" not in d),
        "cylinders": next(d for d in documents if "symplectic" in d),
    }
    root = tmp_path_factory.mktemp("pool")
    paths = {}
    for name, document in picked.items():
        paths[name] = str(root / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(document))
    return paths


@pytest.mark.parametrize("command", ["validate", "analyze", "plumb"])
def test_the_symplectic_gate_loads_no_aim(command, pool_paths):
    for path in (str(FIXTURES / "triple_node_cover.json"), pool_paths["cylinders"]):
        assert _loaded_after([command, path], ["strata.aim"]) == "[]\n"


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_the_periods_gate_loads_no_deformation(command):
    path = str(FIXTURES / "parallel_cylinders.json")
    assert _loaded_after([command, path], ["strata.deformation"]) == "[]\n"


WITHOUT_DEFORMATIONS = sorted(
    path.stem for path in FIXTURES.glob("*.json") if "deformations" not in json.loads(path.read_text())
)


def test_the_fixture_list_without_deformations_is_not_empty():
    assert "triple_node_cover" in WITHOUT_DEFORMATIONS and "parallel_cylinders" not in WITHOUT_DEFORMATIONS


@pytest.mark.parametrize("command", ["validate", "analyze"])
@pytest.mark.parametrize("fixture", WITHOUT_DEFORMATIONS)
def test_a_verdict_without_deformations_loads_no_fractions(command, fixture):
    argv = [command, str(FIXTURES / f"{fixture}.json")]
    assert _loaded_after(argv, FRACTIONS) == "[]\n"


WITH_DEFORMATIONS = sorted(path.stem for path in FIXTURES.glob("*.json") if path.stem not in WITHOUT_DEFORMATIONS)


@pytest.mark.parametrize("command", ["validate", "analyze"])
@pytest.mark.parametrize("fixture", WITH_DEFORMATIONS)
def test_a_verdict_with_deformations_loads_no_fractions(command, fixture):
    argv = [command, str(FIXTURES / f"{fixture}.json")]
    assert _loaded_after(argv, FRACTIONS) == "[]\n"


@pytest.mark.parametrize("fixture", sorted(WITH_DEFORMATIONS + WITHOUT_DEFORMATIONS))
def test_deform_loads_no_fractions(fixture):
    assert _loaded_after(["deform", str(FIXTURES / f"{fixture}.json")], FRACTIONS) == "[]\n"


@pytest.mark.parametrize("command", ["plumb", "aim"])
@pytest.mark.parametrize("fixture", sorted(WITH_DEFORMATIONS + WITHOUT_DEFORMATIONS))
def test_plumb_and_aim_load_no_fractions(fixture, command):
    assert _loaded_after([command, str(FIXTURES / f"{fixture}.json")], FRACTIONS) == "[]\n"


@pytest.mark.parametrize("fixture", WITHOUT_DEFORMATIONS)
def test_deform_with_nothing_to_do_loads_no_deformation(fixture):
    argv = ["deform", str(FIXTURES / f"{fixture}.json")]
    assert _loaded_after(argv, ["strata.deformation"]) == "[]\n"


def test_a_ratio_conflict_is_worded_without_fractions(tmp_path):
    doc = json.loads((FIXTURES / "three_node_pinch.json").read_text())
    entries = [("e1", "e2", "2"), ("e2", "e3", "-3"), ("e1", "e3", "5")]
    doc["system"]["ratios"] = [{"e": e, "e'": ep, "q": q} for e, ep, q in entries]
    path = tmp_path / "conflict.json"
    path.write_text(json.dumps(doc))
    argv = ["validate", str(path)]
    assert main(argv) == 1
    assert _loaded_after(argv, FRACTIONS) == "[]\n"


@pytest.mark.parametrize("command", ["validate", "analyze", "plumb", "aim"])
@pytest.mark.parametrize("pool", ["dense", "cylinders"])
def test_a_pool_verdict_loads_no_fractions(command, pool, pool_paths):
    assert _loaded_after([command, pool_paths[pool]], FRACTIONS) == "[]\n"


def test_the_cli_starts_without_fractions():
    probe = "import sys\nimport strata.cli\n" f"print(sorted(set({FRACTIONS!r}) & set(sys.modules)))\n"
    assert _fresh(probe) == "[]\n"
    assert _loaded_after(None, FRACTIONS) == "[]\n"


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
