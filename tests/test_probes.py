"""Every name the benchmark's tracer patches is still defined where it looks.

``perfbench/tracer.py`` wraps each ``(owner, attr)`` of its ``PROBES`` through
``owner.__dict__[attr]``, so deleting or moving one of those names breaks
``perfbench/run.py --trace 1``.
"""

import importlib.util
import pathlib
import sys

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _probes() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return [(owner, attr) for owner, attr, *_ in module.PROBES]


PROBES = _probes()


@pytest.mark.parametrize("owner, attr", PROBES,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr in PROBES])
def test_probe_name_is_defined_on_its_owner(owner, attr):
    assert attr in vars(owner)
