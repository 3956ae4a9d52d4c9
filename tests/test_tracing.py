"""The traced benchmark run finds every engine name it wraps.

perfbench/tracing.py replaces engine functions where their callers look
them up, by name, so renaming one breaks the traced run and nothing else.
Here its install() and restore() run on a fresh import of the package, as
perfbench/run.py imports it for each set-up.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def engine_modules() -> list[str]:
    return [name for name in sys.modules if name == "policygraph" or name.startswith("policygraph.")]


@pytest.fixture
def fresh_engine():
    """Every module of policygraph imported anew, as attributes; the
    modules imported before are put back afterwards."""
    saved = {name: sys.modules.pop(name) for name in engine_modules()}
    try:
        package = importlib.import_module("policygraph")
        names = [info.name for info in pkgutil.iter_modules(package.__path__)]
        yield SimpleNamespace(**{name: importlib.import_module(f"policygraph.{name}") for name in names})
    finally:
        for name in engine_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_name_and_restore_puts_each_back(fresh_engine):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.install(tracer, fresh_engine)  # an AttributeError names a lost name
    patched = list(tracer._patched)
    try:
        assert len(patched) > 20
        assert len({(id(owner), attr) for owner, attr, _ in patched}) == len(patched)
        for owner, attr, original in patched:
            assert getattr(owner, attr).__wrapped__ is original, (owner, attr)
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
