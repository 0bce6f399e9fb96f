"""Every name the benchmark's tracer patches is still defined where it looks.

``perfbench/tracer.py`` wraps each ``(owner, attr)`` of its ``PROBES`` through
``owner.__dict__[attr]``, so deleting or moving one of those names breaks
``perfbench/run.py --trace 1``.
"""

import importlib.util
import pathlib
import sys

import pytest

from wptsim.channel import Position
from wptsim.engine import Metrics, Scenario, ring_positions

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracer = _tracer()
PROBES = [(owner, attr) for owner, attr, *_ in tracer.PROBES]


@pytest.mark.parametrize("owner, attr", PROBES,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr in PROBES])
def test_probe_name_is_defined_on_its_owner(owner, attr):
    assert attr in vars(owner)


@pytest.mark.parametrize("speed, mobile", [(0.0, False), (1.0, True)])
def test_scenario_info_reads_the_motion_of_a_scenario(speed, mobile):
    # The run_scenario spans record whether the node moves, from the
    # scenario's trajectory.
    scn = Scenario(slave_positions=ring_positions(3, radius_m=1.0, height_m=0.0),
                   leader_position=Position(0, 0, 0), node_position=Position(0, 0, -0.1),
                   rounds=5, speed_m_per_s=speed)
    info = tracer._scenario_info((scn,), Metrics(power_trace=[0.5] * 5))
    assert info == {"rounds": 5, "mobile": mobile}
