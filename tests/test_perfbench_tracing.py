"""The per-layer tracer in perfbench must keep up with the package.

perfbench/tracing.py wraps tidalbundle functions by module and name, so
a rename or a moved function would break `perfbench/run.py --trace 1`.
The file is read and executed here without importing it as a module, so
nothing is written under perfbench/.
"""

import importlib
import types
from pathlib import Path

import numpy as np

from tidalbundle import connection
from tidalbundle.scenario import builtin_scenario
from tidalbundle.tensors import PhasePoint

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    mod = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), mod.__dict__)
    return mod


def _targets(tracing):
    """(owner object, attribute) of every function and method it wraps."""
    out = [(importlib.import_module(f"tidalbundle.{owner}"), attr)
           for owner, attr, _ in tracing.FUNCTIONS]
    out += [(getattr(importlib.import_module(f"tidalbundle.{owner}"), cls), attr)
            for owner, cls, attr, _ in tracing.METHODS]
    return out


def test_tracer_installs_records_and_uninstalls():
    tracing = _tracing()
    targets = _targets(tracing)
    originals = [vars(owner)[attr] for owner, attr in targets]
    assert all(callable(fn) for fn in originals)

    sc = builtin_scenario("reissner_nordstrom")
    x = np.array([0.0, 8.0, 1.2, 0.4])
    p = PhasePoint.create(sc.metric.pack(x).g, x, [1.3, 0.1, 0.02, 0.01])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), fn in zip(targets, originals):
            assert vars(owner)[attr] is not fn, attr
        tracer.recording = True
        connection.connection_data(sc.metric, sc.potential, 1.0, p)
        tracer.recording = False
    finally:
        tracer.uninstall()
    for (owner, attr), fn in zip(targets, originals):
        assert vars(owner)[attr] is fn, attr
    calls = tracer.summary()["calls"]
    assert calls["connection.connection_data"] == 1
    assert calls["connection.field_frame"] == 1
    assert calls["connection.fiber_parts_plain"] == 1
