import dataclasses
import json
import shutil
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from tidalbundle import scenario
from tidalbundle.errors import ScenarioError
from tidalbundle.fields import MetricField, PotentialField
from tidalbundle.scenario import (BUILTIN_IDS, DEFAULT_SUITE, Scenario,
                                  builtin_scenario, builtin_scenarios,
                                  load_scenario, resolve_scenario,
                                  scenario_defaults, scenario_from_dict)

SHIPPED = resources.files("tidalbundle") / "scenarios"
SHIPPED_FILES = sorted(f.name for f in SHIPPED.iterdir()
                       if f.name.endswith(".json"))


def _minimal(**extra):
    data = {"id": "t", "metric": {"name": "minkowski"}}
    data.update(extra)
    return data


def test_builtin_ids_all_load():
    for sid in BUILTIN_IDS:
        sc = builtin_scenario(sid)
        assert sc.id == sid
        assert sc.metric.guard_ok(sc.x0)
    assert set(DEFAULT_SUITE) <= set(BUILTIN_IDS)
    assert len(builtin_scenarios()) == len(DEFAULT_SUITE)


def test_defaults_fill_in():
    sc = scenario_from_dict(_minimal())
    assert sc.potential.name == "zero"
    assert sc.alpha == 0.0
    assert sc.integrator.method == "rk45-adaptive"
    assert not sc.has_deviation
    np.testing.assert_array_equal(sc.y0, [1.0, 0.0, 0.0, 0.0])
    # cartesian chart gets the cartesian sampling box
    assert sc.sampling_box[1][0] == -1.0


def test_defaults_template_is_valid():
    sc = scenario_from_dict(scenario_defaults())
    assert sc.id == "example"


def test_unknown_key_rejected():
    with pytest.raises(ScenarioError, match="extra_knob"):
        scenario_from_dict(_minimal(extra_knob=1))


def test_unknown_metric_name():
    with pytest.raises(ScenarioError, match="unknown metric"):
        scenario_from_dict({"id": "t", "metric": {"name": "kerr"}})


def test_chart_mismatch_between_metric_and_potential():
    data = _minimal(potential={"name": "coulomb", "params": {"Q": 1.0}})
    with pytest.raises(ScenarioError, match="chart"):
        scenario_from_dict(data)


def test_initial_point_outside_chart():
    data = {"id": "t", "metric": {"name": "schwarzschild", "params": {"M": 1.0}},
            "initial": {"x0": [0.0, 1.0, 1.5, 0.0]}}
    with pytest.raises(ScenarioError, match="chart"):
        scenario_from_dict(data)


def test_null_initial_velocity_hint():
    data = _minimal(initial={"x0": [0, 0, 0, 0], "y0": [1.0, 1.0, 0.0, 0.0]})
    with pytest.raises(ScenarioError, match="normalize"):
        scenario_from_dict(data)


def test_normalize_wrong_causal_sign():
    data = _minimal(initial={"y0": [0.1, 1.0, 0.0, 0.0], "normalize": -1})
    with pytest.raises(ScenarioError, match="timelike|spacelike"):
        scenario_from_dict(data)


def test_normalize_applies():
    data = _minimal(initial={"y0": [2.0, 0.5, 0.0, 0.0], "normalize": -1})
    sc = scenario_from_dict(data)
    g = np.diag([-1.0, 1, 1, 1])
    assert g @ sc.y0 @ sc.y0 == pytest.approx(-1.0)


def test_inverted_sampling_box_rejected():
    data = _minimal(sampling={"box": [[0, 1], [1, -1], [0, 1], [0, 1]]})
    with pytest.raises(ScenarioError, match="box"):
        scenario_from_dict(data)


def test_bad_integrator_rejected():
    data = _minimal(integrator={"method": "rk4-fixed", "step": -0.5})
    with pytest.raises(ScenarioError):
        scenario_from_dict(data)


@pytest.mark.parametrize("data", [
    _minimal(extra_knob=1),                                  # extra key
    _minimal(alpha="big"),                                   # wrong type
    {"id": "t"},                                             # missing key
    _minimal(initial={"normalize": "sometimes"}),            # bad enum
    _minimal(integrator={"method": "euler"}),                # bad enum
    _minimal(integrator={"samples": 1}),                     # nested bound
    # two errors: the best match is the shallower one, not the first found
    {"id": "t", "metric": {"name": 5}, "alpha": "big"},
], ids=["extra-key", "wrong-type", "missing-key", "bad-enum",
        "bad-method", "nested-bound", "best-of-two"])
def test_schema_errors_match_jsonschema_validate(data):
    # the reference: a fresh jsonschema.validate against the shipped
    # schema, reported the way scenario_from_dict words it
    ref = resources.files("tidalbundle") / "schemas/scenario.schema.json"
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(data, json.loads(ref.read_text()))
    e = expected.value
    path = "/".join(str(p) for p in e.absolute_path) or "<root>"
    with pytest.raises(ScenarioError) as got:
        scenario_from_dict(data, source="doc.json")
    assert str(got.value) == f"doc.json: invalid scenario at {path}: {e.message}"


def test_validator_is_built_and_checked_once(monkeypatch, tmp_path):
    cls = jsonschema.Draft202012Validator
    check = cls.check_schema
    checked = []
    monkeypatch.setattr(cls, "check_schema", classmethod(
        lambda klass, schema: checked.append(schema) or check(schema)))
    scenario._validator.cache_clear()
    paths = [shutil.copy(SHIPPED / f"{sid}.json", tmp_path)
             for sid in BUILTIN_IDS]
    for _ in range(3):
        for path in paths:
            load_scenario(path)
    info = scenario._validator.cache_info()
    assert len(checked) == 1 and checked[0]["$schema"].endswith("2020-12/schema")
    # one validation per file given by path
    assert (info.misses, info.hits) == (1, 3 * len(paths) - 1)
    # built-ins ship with the package: schema-checked by
    # test_shipped_scenario_matches_schema, never at run time
    scenario._validator.cache_clear()
    for sid in BUILTIN_IDS:
        builtin_scenario(sid)
    info = scenario._validator.cache_info()
    assert (info.misses, info.hits) == (0, 0) and len(checked) == 1


def test_shipped_scenario_files_are_the_builtins():
    # so a new built-in cannot skip test_shipped_scenario_matches_schema
    assert SHIPPED_FILES == sorted(f"{sid}.json" for sid in BUILTIN_IDS)


def _assert_same_scenario(a, b):
    for f in dataclasses.fields(Scenario):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, (MetricField, PotentialField)):
            assert (type(x), x.name, x.params, x.coords, x.zeros) == \
                (type(y), y.name, y.params, y.coords, y.zeros), f.name
        elif isinstance(x, np.ndarray) or x is None:
            assert (x is None) == (y is None), f.name
            np.testing.assert_array_equal(x, y, err_msg=f.name)
        else:
            assert x == y, f.name


@pytest.mark.parametrize("name", SHIPPED_FILES)
def test_shipped_scenario_matches_schema(name, tmp_path):
    # the schema check builtin_scenario leaves out at run time
    data = json.loads((SHIPPED / name).read_text(encoding="utf-8"))
    assert list(scenario._validator().iter_errors(data)) == []
    # so a copy given by path, schema-checked, builds the same scenario
    path = shutil.copy(SHIPPED / name, tmp_path)
    _assert_same_scenario(load_scenario(path),
                          builtin_scenario(name.removesuffix(".json")))
    # and the check has teeth: the same file with an unknown key is refused
    Path(path).write_text(json.dumps({**data, "extra_knob": 1}))
    with pytest.raises(ScenarioError) as got:
        load_scenario(path)
    assert str(got.value) == (
        f"{path}: invalid scenario at <root>: Additional properties are not "
        "allowed ('extra_knob' was unexpected)")


def test_deviation_requires_both_vectors():
    with pytest.raises(ScenarioError, match="v0"):
        scenario_from_dict(_minimal(deviation={"w0": [0, 1, 0, 0]}))
    sc = scenario_from_dict(_minimal(deviation={"w0": [0, 1, 0, 0],
                                                "v0": [0, 0, 0, 0]}))
    assert sc.has_deviation
    np.testing.assert_array_equal(sc.w0, [0, 1, 0, 0])


def test_load_from_file_and_resolve(tmp_path):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(_minimal(alpha=0.25)))
    sc = load_scenario(path)
    assert sc.alpha == 0.25
    assert resolve_scenario(str(path)).alpha == 0.25
    assert resolve_scenario("flat_vacuum").id == "flat_vacuum"
    with pytest.raises(ScenarioError):
        resolve_scenario(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(bad)


def test_non_finite_numbers_rejected(tmp_path):
    # json reads NaN, Infinity and ints past the float range, and the
    # schema's "number" admits them; the scenario refuses them, named by
    # path, from a dict or a file
    nan, inf, huge = float("nan"), float("inf"), 10 ** 400
    for data, path in ((_minimal(alpha=nan), "alpha"),
                       (_minimal(nonspray_perturbation=-inf),
                        "nonspray_perturbation"),
                       (_minimal(initial={"y0": [nan, 0, 0, 0]}),
                        "initial/y0/0"),
                       (_minimal(integrator={"t_span": [0.0, inf]}),
                        "integrator/t_span/1"),
                       (_minimal(metric={"name": "schwarzschild",
                                         "params": {"M": nan}}),
                        "metric/params/M"),
                       (_minimal(alpha=huge), "alpha"),
                       (_minimal(nonspray_perturbation=-huge),
                        "nonspray_perturbation"),
                       (_minimal(initial={"x0": [0, huge, 0, 0]}),
                        "initial/x0/1"),
                       (_minimal(initial={"y0": [huge, 0, 0, 0]}),
                        "initial/y0/0"),
                       (_minimal(integrator={"t_span": [0, huge]}),
                        "integrator/t_span/1"),
                       (_minimal(sampling={"box": [[0, 1], [0, huge],
                                                   [0, 1], [0, 1]]}),
                        "sampling/box/1/1"),
                       (_minimal(deviation={"w0": [0, 0, huge, 0],
                                            "v0": [0, 0, 0, 0]}),
                        "deviation/w0/2"),
                       (_minimal(metric={"name": "schwarzschild",
                                         "params": {"M": huge}}),
                        "metric/params/M")):
        with pytest.raises(ScenarioError,
                           match=f"at {path}: numbers must be finite"):
            scenario_from_dict(data)
    for text in ('{"id": "bad", "metric": {"name": "minkowski"}, '
                 '"alpha": NaN}',
                 '{"id": "bad", "metric": {"name": "minkowski"}, '
                 '"initial": {"y0": [NaN, 0, 0, 0]}}',
                 '{"id": "bad", "metric": {"name": "minkowski"}, '
                 '"alpha": -Infinity}',
                 '{"id": "bad", "metric": {"name": "minkowski"}, '
                 '"initial": {"x0": [0, 1' + "0" * 400 + ', 0, 0]}}'):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ScenarioError, match="numbers must be finite"):
            load_scenario(path)


def test_raw_preserves_filled_document():
    sc = scenario_from_dict(_minimal())
    assert sc.raw["potential"]["name"] == "zero"
    assert sc.raw["integrator"]["samples"] == 201
