"""The benchmark's tracer (``perfbench/tracer.py``) wraps aurelab functions
by module, class and name, and some of its hooks read a call's arguments by
name.  A rename in the package would crash a traced benchmark round; these
tests make it fail here instead.  The tracer file is only read."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


def _traced(owner: str, attr: str):
    module_name, _, cls = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(getattr(target, cls) if cls else target, attr)


def _names_read(hook) -> set[str]:
    """The argument names ``hook`` reads from a call it is given."""
    if hook is tracer._count_corrections:
        return {"ds", "records"}
    nonlocals = inspect.getclosurevars(hook).nonlocals if hook else {}
    return {nonlocals["argument"]} if "argument" in nonlocals else set()


@pytest.mark.parametrize("owner,attr", [
    (owner, attr) for _, owner, attr, _, _ in tracer.TRACED])
def test_traced_name_resolves(owner, attr):
    assert callable(_traced(owner, attr))


def test_hooks_read_arguments_the_functions_take():
    read = {}
    for _, owner, attr, _, hook in tracer.TRACED:
        params = inspect.signature(_traced(owner, attr)).parameters
        read[attr] = _names_read(hook)
        assert read[attr] <= set(params), (owner, attr, read[attr])
    assert {name: read[name] for name in ("save", "load", "save_checkpoint",
                                          "apply_corrections")} == {
        "save": {"path"}, "load": {"path"}, "save_checkpoint": {"path"},
        "apply_corrections": {"ds", "records"}}
