import ast
import dataclasses
import json
import random
import shutil
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import tidalbundle
from tidalbundle import scenario
from tidalbundle.errors import ScenarioError
from tidalbundle.fields import MetricField, PotentialField
from tidalbundle.scenario import (BUILTIN_IDS, DEFAULT_SUITE, Scenario,
                                  builtin_scenario, builtin_scenarios,
                                  load_scenario, resolve_scenario,
                                  scenario_defaults, scenario_from_dict)

try:
    import jsonschema
except ImportError:
    jsonschema = None

# jsonschema is a test extra: it is the reference the in-repo schema check
# is compared with, and the tests that need it skip where it is missing
needs_jsonschema = pytest.mark.skipif(jsonschema is None,
                                      reason="jsonschema is not installed")

SHIPPED = resources.files("tidalbundle") / "scenarios"
SHIPPED_FILES = sorted(f.name for f in SHIPPED.iterdir()
                       if f.name.endswith(".json"))
SCHEMA_FILE = resources.files("tidalbundle") / "schemas/scenario.schema.json"


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


def _jsonschema_words(data, schema=None):
    """What scenario_from_dict must say of data: jsonschema's best_match
    against the shipped schema, or None where jsonschema accepts it."""
    if schema is None:
        schema = json.loads(SCHEMA_FILE.read_text(encoding="utf-8"))
    e = jsonschema.exceptions.best_match(
        jsonschema.Draft202012Validator(schema).iter_errors(data))
    if e is None:
        return None
    path = "/".join(str(p) for p in e.absolute_path) or "<root>"
    return f"doc.json: invalid scenario at {path}: {e.message}"


@needs_jsonschema
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


# what a mutation may put in: every type, each schema bound and its edge
_FUZZ_VALUES = ("null", "true", "false", "0", "1", "2", "2.0", "-0.5", "1e300",
                '""', '"x"', '"none"', '"rk4-fixed"', "[]", "[1]", "[true, 0]",
                "[0, 0, 0, 0]", "[0, 1, 2, 3, 4]", "{}", '{"name": "zero"}')
_FUZZ_KEYS = ("extra", "aa", "zz", "id", "w0", "step")


def _mutated(doc, rng):
    """A copy of doc with one to three random edits, each a value replaced,
    a key or item dropped, or a key or item added."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.randint(1, 3)):
        # walk down from the root, stopping at random
        node, key = doc, None
        while True:
            keys = list(node) if isinstance(node, dict) else range(len(node))
            key = rng.choice(keys) if keys and rng.random() < 0.8 else None
            if (key is None or not isinstance(node[key], (dict, list))
                    or rng.random() < 0.3):
                break
            node = node[key]
        value = json.loads(rng.choice(_FUZZ_VALUES))
        if key is None and isinstance(node, dict):
            node[rng.choice(_FUZZ_KEYS)] = value
        elif key is None:
            node.append(value)
        elif rng.random() < 0.2:
            del node[key]
        else:
            node[key] = value
    return doc


@needs_jsonschema
def test_schema_errors_match_jsonschema_on_mutated_builtins():
    # every refusal is worded as jsonschema's best_match words it, and
    # every document jsonschema accepts passes the schema check
    builtins = [json.loads((SHIPPED / f"{sid}.json").read_text("utf-8"))
                for sid in BUILTIN_IDS]
    validator = jsonschema.Draft202012Validator(
        json.loads(SCHEMA_FILE.read_text(encoding="utf-8")))
    keywords, accepted = set(), 0
    for seed in (0, 1):
        rng = random.Random(seed)
        for _ in range(2000):
            doc = _mutated(rng.choice(builtins), rng)
            e = jsonschema.exceptions.best_match(validator.iter_errors(doc))
            if e is None:
                accepted += 1
                assert list(scenario._schema_errors(doc, scenario._SCHEMA)) \
                    == [], doc
                continue
            keywords.add(e.validator)
            path = "/".join(str(p) for p in e.absolute_path) or "<root>"
            with pytest.raises(ScenarioError) as got:
                scenario_from_dict(doc, source="doc.json")
            assert str(got.value) == (
                f"doc.json: invalid scenario at {path}: {e.message}"), doc
    # the fuzz reaches every keyword that can fail, and accepts some
    assert keywords == {"type", "enum", "required", "additionalProperties",
                        "minItems", "maxItems", "minLength", "minimum",
                        "exclusiveMinimum"}
    assert 0 < accepted < 4000


def test_schema_uses_only_supported_keywords():
    # the in-repo check reads only these keywords, so a schema edit that
    # adds another (anyOf, pattern, ...) must fail here, not be ignored
    schema = json.loads(SCHEMA_FILE.read_text(encoding="utf-8"))
    assert schema == scenario._SCHEMA
    checked = {"type", "enum", "required", "properties",
               "additionalProperties", "items", "minItems", "maxItems",
               "minLength", "minimum", "exclusiveMinimum", "$ref"}
    types = {"object", "array", "string", "number", "integer", "boolean",
             "null"}
    assert set(schema) - checked == {"$schema", "$id", "title", "version",
                                     "$defs"}
    todo = [{k: v for k, v in schema.items() if k in checked},
            *schema["$defs"].values()]
    while todo:
        node = todo.pop()
        assert set(node) <= checked, node
        for t in ([node["type"]] if isinstance(node.get("type"), str)
                  else node.get("type", [])):
            assert t in types, node
        if "additionalProperties" in node:
            assert node["additionalProperties"] is False, node
            assert "properties" in node, node
        if "$ref" in node:
            assert node["$ref"].startswith("#/$defs/"), node
            assert node["$ref"].removeprefix("#/$defs/") in schema["$defs"]
        todo += node.get("properties", {}).values()
        todo += [node["items"]] if "items" in node else []


@needs_jsonschema
def test_shipped_schema_passes_its_metaschema():
    schema = json.loads(SCHEMA_FILE.read_text(encoding="utf-8"))
    cls = jsonschema.validators.validator_for(schema)
    assert cls is jsonschema.Draft202012Validator
    cls.check_schema(schema)


@needs_jsonschema
def test_schema_is_read_once(monkeypatch, tmp_path):
    # the schema is read at import: loading every built-in and a copy of
    # each by path, three times over, opens no schema file
    opened = []
    read_text = Path.read_text
    monkeypatch.setattr(Path, "read_text", lambda self, *a, **k: opened.append(
        self.name) or read_text(self, *a, **k))
    paths = [shutil.copy(SHIPPED / f"{sid}.json", tmp_path)
             for sid in BUILTIN_IDS]
    for _ in range(3):
        for sid, path in zip(BUILTIN_IDS, paths):
            builtin_scenario(sid)
            load_scenario(path)
    assert "scenario.schema.json" not in opened
    assert opened.count("cyclotron.json") == 3     # built-ins are read
    # and the check takes its rules from that schema, not from code: with
    # alpha made required, a scenario without one is refused as jsonschema
    # refuses it
    strict = {**scenario._SCHEMA,
              "required": [*scenario._SCHEMA["required"], "alpha"]}
    monkeypatch.setattr(scenario, "_SCHEMA", strict)
    want = _jsonschema_words(_minimal(), strict)
    assert want == "doc.json: invalid scenario at <root>: " \
        "'alpha' is a required property"
    with pytest.raises(ScenarioError) as got:
        scenario_from_dict(_minimal(), source="doc.json")
    assert str(got.value) == want


def test_shipped_scenario_files_are_the_builtins():
    # so a new built-in cannot skip test_shipped_scenario_matches_schema
    assert SHIPPED_FILES == sorted(f"{sid}.json" for sid in BUILTIN_IDS)


def _assert_same_scenario(a, b):
    for f in dataclasses.fields(Scenario):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, (MetricField, PotentialField)):
            # the zeros their packs report at the initial point
            assert (type(x), x.name, x.params, x.coords,
                    x.pack(a.x0).zeros) == \
                (type(y), y.name, y.params, y.coords,
                 y.pack(b.x0).zeros), f.name
        elif isinstance(x, np.ndarray) or x is None:
            assert (x is None) == (y is None), f.name
            np.testing.assert_array_equal(x, y, err_msg=f.name)
        else:
            assert x == y, f.name


@needs_jsonschema
@pytest.mark.parametrize("name", SHIPPED_FILES)
def test_shipped_scenario_matches_schema(name, tmp_path):
    # jsonschema, the reference, accepts every shipped file
    data = json.loads((SHIPPED / name).read_text(encoding="utf-8"))
    assert _jsonschema_words(data) is None
    # a built-in and a copy given by path take one path and build the same
    path = shutil.copy(SHIPPED / name, tmp_path)
    _assert_same_scenario(load_scenario(path),
                          builtin_scenario(name.removesuffix(".json")))
    # and the check has teeth: the same file with unknown keys is refused,
    # worded as jsonschema words it
    for extra in ({"extra_knob": 1}, {"zz": 1, "extra_knob": 2}):
        Path(path).write_text(json.dumps({**data, **extra}))
        with pytest.raises(ScenarioError) as got:
            load_scenario(path)
        assert str(got.value) == _jsonschema_words(
            {**data, **extra}).replace("doc.json", str(path), 1)
    assert str(got.value) == (
        f"{path}: invalid scenario at <root>: Additional properties are not "
        "allowed ('extra_knob', 'zz' were unexpected)")


def test_no_module_imports_jsonschema():
    # numpy is the only runtime dependency: the scenario schema is checked
    # in-repo, and jsonschema is a test extra
    offenders = []
    for path in Path(tidalbundle.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import)
                     else [node.module or ""]
                     if isinstance(node, ast.ImportFrom) else [])
            offenders += [(path.name, node.lineno) for n in names
                          if n.split(".")[0] == "jsonschema"]
    assert offenders == []


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
