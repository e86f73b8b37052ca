"""Scenario files: a metric, a potential, a coupling, and run parameters.

A scenario is the single unit of configuration every command consumes.
Built-ins, files given by path and dicts take one load path: the data is
checked against the shipped schema by a small in-repo validator, which
words its error as jsonschema's `best_match` would, so numpy is the only
runtime dependency.  Then every scenario is checked semantically: numbers
must be finite, catalog names must resolve, the charts of metric and
potential must match, the initial point must pass the chart guard, and the
initial fiber must be non-null after optional normalization.  Scenario
files are UTF-8, the JSON encoding.
"""

from __future__ import annotations

import importlib.resources
import json
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import IntegratorConfig, normalize_velocity
from .errors import NonFiniteFiberError, NullFiberError, ScenarioError
from .fields import (MetricField, PotentialField, builtin_metric,
                     builtin_potential, coords_compatible, finite_number)
from .tensors import PhasePoint

# Default base-coordinate sampling boxes per chart.  Spherical boxes keep
# clear of the axis and of every catalog metric's inner guard radius.
_BOX_CARTESIAN = [[0.0, 1.0], [-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]]
_BOX_SPHERICAL = [[0.0, 1.0], [4.0, 50.0], [0.7, 2.4], [0.0, 6.2]]

_DEFAULTS = {
    "potential": {"name": "zero", "params": {}},
    "alpha": 0.0,
    "initial": {"x0": [0.0, 0.0, 0.0, 0.0], "y0": [1.0, 0.0, 0.0, 0.0],
                "normalize": "none"},
    # IntegratorConfig's own defaults, as JSON values
    "integrator": json.loads(json.dumps(asdict(IntegratorConfig()))),
    "einstein_consistent": False,
    "nonspray_perturbation": 0.0,
}

BUILTIN_IDS = (
    "flat_vacuum",
    "flat_uniform_b",
    "schwarzschild_vacuum",
    "reissner_nordstrom",
    "flat_coulomb",
    "flat_gauge",
    "cyclotron",
    "schwarzschild_circular",
    "negative_control",
)

# The default verification suite (the catalog four).
DEFAULT_SUITE = ("flat_vacuum", "flat_uniform_b", "schwarzschild_vacuum",
                 "reissner_nordstrom")


@dataclass(frozen=True)
class Scenario:
    id: str
    metric: MetricField
    potential: PotentialField
    alpha: float
    x0: np.ndarray
    y0: np.ndarray                 # after normalization, if requested
    w0: np.ndarray                 # None when no deviation block
    v0: np.ndarray
    integrator: IntegratorConfig
    sampling_box: np.ndarray       # (4, 2)
    einstein_consistent: bool
    nonspray_perturbation: float
    raw: dict                      # defaults filled in; echo-able

    @property
    def initial_point(self) -> PhasePoint:
        g = self.metric.pack(self.x0).g
        return PhasePoint.create(g, self.x0, self.y0)

    @property
    def has_deviation(self) -> bool:
        return self.w0 is not None


# read once, at import; _schema_errors checks every scenario against it
_SCHEMA = json.loads((importlib.resources.files("tidalbundle")
                      / "schemas/scenario.schema.json").read_text("utf-8"))
_TYPES = {"object": dict, "array": list, "string": str,
          "number": numbers.Number, "boolean": bool, "null": type(None)}


def _is_type(value, name) -> bool:
    """JSON Schema's type test: a bool is no number, and 2.0 is an integer."""
    if isinstance(value, bool) and name != "boolean":
        return False
    if name == "integer":
        return isinstance(value, int) or (isinstance(value, float)
                                          and value.is_integer())
    return isinstance(value, _TYPES[name])


def _schema_errors(value, schema, path=()):
    """Yield (path, message) for each way value breaks schema, worded and
    ordered as jsonschema yields them: the schema's keywords in file order.
    Only the keywords the shipped schema uses are read."""
    for key, want in schema.items():
        if key == "$ref":                                # "#/$defs/<name>"
            yield from _schema_errors(
                value, _SCHEMA["$defs"][want.rpartition("/")[2]], path)
        elif key == "type":
            types = want if isinstance(want, list) else [want]
            if not any(_is_type(value, t) for t in types):
                yield path, (f"{value!r} is not of type "
                             f"{', '.join(map(repr, types))}")
        elif key == "enum":
            if not any(v == value and isinstance(v, bool) == isinstance(
                    value, bool) for v in want):
                yield path, f"{value!r} is not one of {want!r}"
        elif (key in ("minItems", "minLength") and isinstance(
                value, list if key == "minItems" else str) and len(value) < want):
            yield path, (f"{value!r} should be non-empty" if want == 1
                         else f"{value!r} is too short")
        elif key == "maxItems" and isinstance(value, list) and len(value) > want:
            yield path, (f"{value!r} is expected to be empty" if want == 0
                         else f"{value!r} is too long")
        elif key == "minimum" and _is_type(value, "number") and value < want:
            yield path, f"{value!r} is less than the minimum of {want!r}"
        elif key == "exclusiveMinimum" and _is_type(value, "number") and value <= want:
            yield path, f"{value!r} is less than or equal to the minimum of {want!r}"
        elif key == "items" and isinstance(value, list):
            for i, item in enumerate(value):
                yield from _schema_errors(item, want, path + (i,))
        elif not isinstance(value, dict):
            continue
        elif key == "required":
            yield from ((path, f"{name!r} is a required property")
                        for name in want if name not in value)
        elif key == "properties":
            for name, sub in want.items():
                if name in value:
                    yield from _schema_errors(value[name], sub, path + (name,))
        elif key == "additionalProperties":
            extra = sorted((k for k in value if k not in schema["properties"]),
                           key=str)
            if extra:
                yield path, ("Additional properties are not allowed ("
                             f"{', '.join(map(repr, extra))} "
                             f"{'was' if len(extra) == 1 else 'were'} unexpected)")


def _non_finite(value, path=()):
    """The path to the first number in JSON data that is not a finite
    real, or None.

    json parses NaN, Infinity and ints of any size, and the schema's
    "number" admits them all; a bool is not a number here.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return None if finite_number(value) else path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        found = _non_finite(item, path + (key,))
        if found is not None:
            return found
    return None


def scenario_defaults() -> dict:
    """The default-filled skeleton, for --echo-defaults."""
    d = {"id": "example", "metric": {"name": "minkowski", "params": {}}}
    return _fill_defaults(d)


def _fill_defaults(data: dict) -> dict:
    out = json.loads(json.dumps(data))   # deep copy, JSON types only
    for key, val in _DEFAULTS.items():
        if key not in out:
            out[key] = json.loads(json.dumps(val))
        elif isinstance(val, dict):
            for k2, v2 in val.items():
                out[key].setdefault(k2, v2)
    out["metric"].setdefault("params", {})
    out["potential"].setdefault("params", {})
    return out


def scenario_from_dict(data: dict, source="<dict>") -> Scenario:
    """Check scenario data against the schema and semantically, then build
    it: the one path of built-ins, files given by path and dicts."""
    # jsonschema's best_match: the shortest path, then the greatest; on a
    # full tie the first error yielded
    bad = max(_schema_errors(data, _SCHEMA), default=None,
              key=lambda e: (-len(e[0]), e[0]))
    if bad is None and (where := _non_finite(data)) is not None:
        bad = where, "numbers must be finite"
    if bad is not None:
        path = "/".join(str(p) for p in bad[0]) or "<root>"
        raise ScenarioError(f"{source}: invalid scenario at {path}: {bad[1]}")

    data = _fill_defaults(data)

    try:
        metric = builtin_metric(data["metric"]["name"], data["metric"]["params"])
    except (ValueError, TypeError) as e:
        raise ScenarioError(f"{source}: metric: {e}")
    try:
        potential = builtin_potential(data["potential"]["name"],
                                      data["potential"]["params"])
    except (ValueError, TypeError) as e:
        raise ScenarioError(f"{source}: potential: {e}")
    if not coords_compatible(metric, potential):
        raise ScenarioError(
            f"{source}: metric chart {metric.coords!r} does not match "
            f"potential chart {potential.coords!r}")

    x0 = np.asarray(data["initial"]["x0"], dtype=float)
    y0 = np.asarray(data["initial"]["y0"], dtype=float)
    if not metric.guard_ok(x0):
        raise ScenarioError(
            f"{source}: initial.x0 {x0.tolist()} is outside the chart of "
            f"metric {metric.name!r}")
    if not potential.guard_ok(x0):
        raise ScenarioError(
            f"{source}: initial.x0 {x0.tolist()} is outside the domain of "
            f"potential {potential.name!r}")

    g = metric.pack(x0).g
    normalize = data["initial"]["normalize"]
    if normalize != "none":
        try:
            y0 = normalize_velocity(g, y0, normalize)
        except (NullFiberError, NonFiniteFiberError) as e:
            raise ScenarioError(f"{source}: initial.normalize: {e}")
    try:
        PhasePoint.create(g, x0, y0)
    except NonFiniteFiberError as e:
        raise ScenarioError(f"{source}: initial.y0: {e}")
    except NullFiberError as e:
        raise ScenarioError(
            f"{source}: initial fiber vector is null: {e}. Set "
            "initial.normalize to -1 (timelike) or 1 (spacelike), or pick a "
            "y0 off the light cone.")

    w0 = v0 = None
    if "deviation" in data:
        w0 = np.asarray(data["deviation"]["w0"], dtype=float)
        v0 = np.asarray(data["deviation"]["v0"], dtype=float)

    icfg = data["integrator"]
    integrator = IntegratorConfig(**{**icfg, "t_span": tuple(icfg["t_span"])})
    try:
        integrator.validate()
    except ValueError as e:
        raise ScenarioError(f"{source}: integrator: {e}")

    if "sampling" in data and "box" in data["sampling"]:
        box = np.asarray(data["sampling"]["box"], dtype=float)
    else:
        box = np.asarray(_BOX_SPHERICAL if metric.coords == "spherical"
                         else _BOX_CARTESIAN)
        data["sampling"] = {"box": box.tolist()}
    if np.any(box[:, 1] < box[:, 0]):
        raise ScenarioError(f"{source}: sampling.box has hi < lo")

    return Scenario(
        id=data["id"], metric=metric, potential=potential,
        alpha=float(data["alpha"]), x0=x0, y0=y0,
        w0=w0, v0=v0, integrator=integrator, sampling_box=box,
        einstein_consistent=bool(data["einstein_consistent"]),
        nonspray_perturbation=float(data["nonspray_perturbation"]),
        raw=data)


def load_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as e:
        raise ScenarioError(f"cannot read scenario file: {e}")
    except ValueError as e:
        # JSONDecodeError, UnicodeDecodeError, or an int literal longer
        # than the interpreter's int-string conversion limit
        raise ScenarioError(f"{path}: not valid JSON: {e}")
    except RecursionError:
        raise ScenarioError(f"{path}: not valid JSON: nested too deeply")
    return scenario_from_dict(data, source=str(path))


def builtin_scenario(scenario_id: str) -> Scenario:
    if scenario_id not in BUILTIN_IDS:
        raise ScenarioError(
            f"unknown built-in scenario {scenario_id!r}; "
            f"available: {', '.join(BUILTIN_IDS)}")
    ref = (importlib.resources.files("tidalbundle")
           / f"scenarios/{scenario_id}.json")
    return scenario_from_dict(json.loads(ref.read_text(encoding="utf-8")),
                              source=f"builtin:{scenario_id}")


def builtin_scenarios(ids=DEFAULT_SUITE):
    return [builtin_scenario(i) for i in ids]


def resolve_scenario(ref: str) -> Scenario:
    """Accept either a built-in id or a path to a JSON file."""
    if ref in BUILTIN_IDS:
        return builtin_scenario(ref)
    return load_scenario(ref)
