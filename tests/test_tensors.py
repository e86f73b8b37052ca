import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tidalbundle
from tidalbundle import tensors
from tidalbundle.connection import field_frame, fiber_parts
from tidalbundle.dynamics import worldline_rhs
from tidalbundle.errors import (ChartDomainError, NonFiniteFiberError,
                                NullFiberError)
from tidalbundle.fields import (builtin_metric, builtin_potential,
                                metric_from_callable)
from tidalbundle.jets import jeinsum
from tidalbundle.tensors import PhasePoint, norm_and_sign, null_tolerance

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def test_norm_and_sign_hand_values():
    # eta(y,y) = -4 + 1 = -3 for y = (2,1,0,0)
    nrm, eps = norm_and_sign(ETA, [2.0, 1.0, 0.0, 0.0])
    assert nrm == pytest.approx(np.sqrt(3.0))
    assert eps == -1
    # spacelike: eta(y,y) = -1 + 4 = 3
    nrm, eps = norm_and_sign(ETA, [1.0, 2.0, 0.0, 0.0])
    assert nrm == pytest.approx(np.sqrt(3.0))
    assert eps == 1


def test_null_vector_rejected():
    with pytest.raises(NullFiberError):
        norm_and_sign(ETA, [1.0, 1.0, 0.0, 0.0])
    # check=False disables the guard; exact zero still yields sign 0
    nrm, eps = norm_and_sign(ETA, [1.0, 1.0, 0.0, 0.0], check=False)
    assert nrm == 0.0 and eps == 0


def test_null_tolerance_scales_with_components():
    assert null_tolerance([2000.0, 0, 0, 0]) == pytest.approx(1e-12 * 2000.0 ** 2)
    # past the float range of the square: inf, with no overflow warning
    with np.errstate(over="raise"):
        assert null_tolerance([1e200, 0, 0, 0]) == np.inf


def test_distinguished_section_unit_lengths():
    y = np.array([1.5, 0.2, -0.4, 0.1])
    frame = field_frame(builtin_metric("minkowski"),
                        builtin_potential("zero"), np.zeros(4))
    parts = fiber_parts(frame, 0.0, y)
    assert parts.l_low @ parts.l_up == pytest.approx(-1.0)  # timelike sign
    nrm, _ = norm_and_sign(ETA, y)
    np.testing.assert_allclose(parts.l_up * nrm, y)


def test_angular_metric_annihilates_fiber():
    frame = field_frame(builtin_metric("schwarzschild", {"M": 1.0}),
                        builtin_potential("zero"), [0.0, 5.0, 1.2, 0.3])
    g = frame.g
    rng = np.random.default_rng(7)
    for _ in range(5):
        y = rng.uniform(-1, 1, 4)
        y[0] = rng.uniform(1.5, 2.5)
        h = fiber_parts(frame, 0.0, y).h_low
        np.testing.assert_allclose(h @ y, np.zeros(4), atol=1e-14)
        # h is a rank-3 projector once an index is raised
        hmix = np.linalg.inv(g) @ h
        np.testing.assert_allclose(hmix @ hmix, hmix, atol=1e-14)
        assert np.trace(hmix) == pytest.approx(3.0)


def test_phase_point_caches_norm():
    p = PhasePoint.create(ETA, np.zeros(4), [2.0, 1.0, 0.0, 0.0])
    assert p.norm == pytest.approx(np.sqrt(3.0))
    assert p.causal_sign == -1
    np.testing.assert_array_equal(p.x, np.zeros(4))
    with pytest.raises(ValueError):
        PhasePoint.create(ETA, np.zeros(3), [2.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        PhasePoint.create(ETA, [0.0, np.nan, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0])


def test_phase_point_refuses_non_finite_fiber():
    # the finite-components check comes before the norm, which a NaN breaks
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            PhasePoint.create(ETA, np.zeros(4), [bad, 0.0, 0.0, 0.0])
    # finite components whose g(y,y) overflows: a package error
    with pytest.raises(NonFiniteFiberError, match="-inf is not finite"):
        PhasePoint.create(ETA, np.zeros(4), [1e300, 0.1, 0.0, 0.0])


def test_nan_norm_on_a_trial_stage_gives_nan_outputs():
    # finite components whose g(y,y) is inf - inf: the default tol refuses
    # them, an explicit one (an integrator's trial stage) gets NaN outputs
    y = [1e200, 1e200, 0.0, 0.0]
    with pytest.raises(NonFiniteFiberError, match="nan is not finite"):
        norm_and_sign(ETA, y)
    nrm, eps = norm_and_sign(ETA, y, check=False)
    assert np.isnan(nrm) and eps == -1
    x = np.array([0.0, 6.0, 1.2, 0.3])
    for potential in (builtin_potential("zero"),
                      builtin_potential("coulomb", {"Q": 0.5})):
        with np.errstate(all="ignore"):
            dx, dy = worldline_rhs(builtin_metric("schwarzschild", {"M": 1.0}),
                                   potential, 1.0, x, y)
        assert np.isnan(dy).all()


def test_nan_trial_stage_exits_2_from_the_cli(tmp_path):
    # a coupling so large that a stage's g(y,y) is NaN: the step control
    # rejects the stage, the step collapses, and the run ends with one
    # error line and exit 2
    path = tmp_path / "huge_alpha.json"
    path.write_text(json.dumps({
        "id": "huge_alpha",
        "metric": {"name": "reissner_nordstrom",
                   "params": {"M": 1.0, "Q": 0.5}},
        "potential": {"name": "coulomb", "params": {"Q": 0.5}},
        "alpha": 1e300,
        "initial": {"x0": [0.0, 8.0, 1.5707963267948966, 0.0],
                    "y0": [1.0, 0.0, 0.0, 0.03], "normalize": -1},
        "integrator": {"t_span": [0.0, 1.0]}}))
    src = Path(tidalbundle.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "tidalbundle", "simulate", "--scenario",
         str(path)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines()
              if line.startswith("error:")]
    assert errors == ["error: integration failed: Required step size is "
                      "less than spacing between numbers."]


# ---------------------------------------------------------------------------
# the linear-algebra binding


def _catalog_metrics():
    return [builtin_metric("minkowski"),
            builtin_metric("minkowski", {"coordinates": "spherical"}),
            builtin_metric("schwarzschild", {"M": 1.0}),
            builtin_metric("reissner_nordstrom", {"M": 1.0, "Q": 0.5}),
            builtin_metric("reissner_nordstrom",
                           {"M": 1.0, "Q": 1.5, "allow_naked": True})]


def _chart_points(metric, rng, n):
    points = []
    while len(points) < n:
        x = rng.uniform([-5.0, 0.0, 0.0, 0.0], [5.0, 30.0, np.pi, 6.2])
        if metric.coords == "cartesian":
            x[1] -= 15.0
        if metric.guard_ok(x):
            points.append(x)
    return points


def test_linalg_binding_matches_np_linalg_bytes():
    rng = np.random.default_rng(5)
    for metric in _catalog_metrics():
        for x in _chart_points(metric, rng, 40):
            g = metric.pack(x).g
            assert tensors.inv(g).tobytes() == np.linalg.inv(g).tobytes()
            assert tensors.det(g).tobytes() == np.linalg.det(g).tobytes()
            for mine, ref in zip(tensors.eigh(g), np.linalg.eigh(g)):
                assert mine.tobytes() == ref.tobytes()


def test_linalg_binding_keeps_numpy_errors():
    # a singular metric: the guard refuses the point, and its inverse
    # raises numpy's LinAlgError, not a warning and a NaN array
    def degenerate(x):
        e = np.zeros((4, 4))
        e[0, 0], e[1, 1], e[2, 2] = -1.0, 1.0, 1.0
        return jeinsum("ij,->ij", e, 1.0 + x[1] * x[1])

    metric = metric_from_callable(degenerate)
    x = np.array([0.0, 0.3, 0.1, 0.2])
    with pytest.raises(ChartDomainError, match="degenerate"):
        metric.pack(x)
    with pytest.raises(np.linalg.LinAlgError):
        metric.pack(x, check=False).ginv


def test_linalg_binding_is_numpy_kernel():
    # the package binds numpy's LAPACK gufuncs, so no inverse, determinant
    # or eigensolve pays np.linalg's wrapper
    from numpy.linalg import _umath_linalg

    assert tensors._umath_linalg is _umath_linalg
    assert tensors.det is _umath_linalg.det


def test_only_tensors_calls_np_linalg():
    # every inverse, determinant and eigensolve goes through the binding
    offenders = []
    for path in Path(tidalbundle.__file__).parent.rglob("*.py"):
        if path.name == "tensors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "linalg"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")):
                offenders.append((path.name, node.lineno))
            names = []
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            if any(name.startswith("numpy.linalg") for name in names):
                offenders.append((path.name, node.lineno))
    assert offenders == []
