import contextlib
import dataclasses
import io
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from conftest import count_builds

import tidalbundle
from tidalbundle.cli import main
from tidalbundle.dynamics import IntegratorConfig
from tidalbundle.fields import builtin_metric, builtin_potential
from tidalbundle.scenario import BUILTIN_IDS

INFALL = {
    "id": "infall",
    "metric": {"name": "schwarzschild", "params": {"M": 1.0}},
    "initial": {"x0": [0.0, 6.0, 1.5707963267948966, 0.0],
                "y0": [1.0, -0.3, 0.0, 0.0], "normalize": -1},
    "integrator": {"t_span": [0.0, 40.0], "samples": 81},
}


def test_list_text_and_json(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "schwarzschild" in out and "cyclotron" in out
    assert main(["list", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "coulomb" in data["potentials"]
    assert "negative_control" in data["scenarios"]


def test_emit_to_a_text_only_stdout(capsys):
    # a stream with no byte buffer standing in for stdout gets the text the
    # byte path writes
    assert main(["list", "--format", "json"]) == 0
    want = capsys.readouterr().out
    with contextlib.redirect_stdout(io.StringIO()) as text:
        assert main(["list", "--format", "json"]) == 0
    assert text.getvalue() == want


def test_compute_json_payload(tmp_path):
    out = tmp_path / "c.json"
    assert main(["compute", "--scenario", "reissner_nordstrom",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    E = np.array(data["curvature"]["tidal"])
    assert E.shape == (4, 4)
    assert data["curvature"]["tidal_trace"] == pytest.approx(np.trace(E))
    block = np.array(data["curvature"]["curvature_block"])
    y = np.array(data["point"]["y"])
    np.testing.assert_allclose(np.einsum("jikl,j,l->ik", block, y, y), E,
                               rtol=1e-10, atol=1e-15)


def test_compute_builds_one_frame(monkeypatch, capsys):
    # the connection and curvature payloads are reads of one sample
    frames, tiers, _ = count_builds(monkeypatch)
    assert main(["compute", "--scenario", "reissner_nordstrom"]) == 0
    assert json.loads(capsys.readouterr().out)["scenario"] == \
        "reissner_nordstrom"
    assert len(frames) == 1
    assert tiers == {"plain": 1, "jet": 1}


def test_compute_at_override(tmp_path, capsys):
    assert main(["compute", "--scenario", "flat_vacuum", "--at",
                 "0", "0", "0", "0", "1", "0.5", "0", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["point"]["x"] == [0, 0, 0, 0]
    assert data["point"]["y"] == [1, 0.5, 0, 0]
    # outside the chart: input error
    assert main(["compute", "--scenario", "schwarzschild_vacuum", "--at",
                 "0", "1.5", "1.2", "0", "1", "0", "0", "0"]) == 2
    assert "chart" in capsys.readouterr().err
    # so is a NaN or infinite component, refused before any geometry runs
    for at in (["0", "0", "0", "0", "nan", "0", "0", "0"],
               ["0", "0", "0", "0", "1", "0", "0", "inf"],
               ["inf", "0", "0", "0", "1", "0", "0", "0"]):
        out = tmp_path / "c.json"
        assert main(["compute", "--scenario", "flat_vacuum", "--at", *at,
                     "--out", str(out)]) == 2
        assert "error: --at values must be finite" in capsys.readouterr().err
        assert not out.exists()
    # finite components whose g(y,y) is not finite: an input error too
    with np.errstate(all="ignore"):
        assert main(["compute", "--scenario", "flat_vacuum", "--at", "0", "0",
                     "0", "0", "1e300", "0.1", "0", "0"]) == 2
    assert capsys.readouterr() == ("", "error: g(y,y) = -inf is not finite\n")


def test_compute_refuses_a_degenerate_initial_point(tmp_path, capsys):
    # x0 clears the chart guard but its metric is degenerate: the loader
    # names the file and the key, in one error line
    path = tmp_path / "axis.json"
    path.write_text(json.dumps({**INFALL, "initial": {
        **INFALL["initial"], "x0": [0.0, 4.0, 5e-8, 0.0]}}))
    assert main(["compute", "--scenario", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}: initial.x0: metric degenerate at ")
    assert err.count("\n") == 1


def test_simulate_deterministic_csv_and_svg(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--scenario", "cyclotron", "--out", str(a),
                 "--plot"]) == 0
    assert main(["simulate", "--scenario", "cyclotron", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    svg = tmp_path / "a.svg"
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    # the plot's text is escaped: a scenario id with markup characters
    # still makes a document that parses, and its title round-trips
    cyclotron = (Path(tidalbundle.__file__).parent / "scenarios"
                 / "cyclotron.json")
    marked = tmp_path / "marked.json"
    marked.write_text(json.dumps({**json.loads(cyclotron.read_text()),
                                  "id": "B<1 & E>0"}))
    assert main(["simulate", "--scenario", str(marked), "--out",
                 str(tmp_path / "m.csv"), "--plot"]) == 0
    root = ET.fromstring((tmp_path / "m.svg").read_text())
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "worldline: B<1 & E>0" in texts


def test_plot_without_out_goes_to_the_working_directory(
        tmp_path, monkeypatch, capsys):
    # the trajectory goes to stdout, and the plot to tidal-plot.svg
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--scenario", "cyclotron", "--plot"]) == 0
    assert capsys.readouterr().out.startswith("t,")
    root = ET.fromstring((tmp_path / "tidal-plot.svg").read_text())
    assert root.tag.endswith("svg")


def test_deviate_outputs_rate_columns(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert main(["deviate", "--scenario", "cyclotron", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header.endswith("w0,w1,w2,w3,v0,v1,v2,v3")
    assert main(["deviate", "--scenario", "flat_vacuum"]) == 2
    assert "deviation" in capsys.readouterr().err


def test_trajectory_commands_log_rhs_count(tmp_path, capsys, caplog):
    # at info level simulate and deviate log the integrator's right-hand-
    # side and step counts and its shortest and longest accepted step; the
    # CSV bytes on stdout and the exit code are the same at every level
    assert main(["simulate", "--echo-defaults", "--scenario",
                 "cyclotron"]) == 0
    raw = json.loads(capsys.readouterr().out)
    raw["integrator"].update(method="rk4-fixed", t_span=[0.0, 1.0],
                             samples=11, step=0.25)
    path = tmp_path / "short.json"
    path.write_text(json.dumps(raw))
    # 10 segments of 0.1, one rk4 substep each, four evaluations a step
    short = ("rk4-fixed: 40 right-hand-side evaluations, 10 steps accepted, "
             "0 rejected, step 0.1 to 0.1")
    cases = [
        ("simulate", str(path), 0, [short]),
        ("deviate", str(path), 0, [short]),
        # rk45-adaptive: rejected steps, and a run that leaves the chart
        ("simulate", "reissner_nordstrom", 3,
         ["rk45-adaptive: 2912 right-hand-side evaluations, 475 steps "
          "accepted, 10 rejected, step 5.27e-08 to 0.666",
          "integration left the chart near t = 23.79714087231002"]),
        ("deviate", "cyclotron", 0,
         ["rk45-adaptive: 1574 right-hand-side evaluations, 262 steps "
          "accepted, 0 rejected, step 0.002 to 0.0176"]),
    ]
    for command, scenario, code, messages in cases:
        outs, logs = [], []
        for level in (logging.WARNING, logging.INFO):
            caplog.clear()
            with caplog.at_level(level, logger="tidalbundle"):
                assert main([command, "--scenario", scenario]) == code
            outs.append(capsys.readouterr().out)
            logs.append(caplog.messages)
        assert logs == [messages[1:], messages]
        assert outs[0] == outs[1]
        assert "right-hand-side" not in outs[1]


def test_verify_exit_codes(tmp_path, capsys):
    rep = tmp_path / "r.json"
    assert main(["verify", "--scenario", "flat_vacuum", "--points", "2",
                 "--out", str(rep)]) == 0
    out = capsys.readouterr().out
    assert "passed" in out and str(rep) in out
    report = json.loads(rep.read_text())
    assert report["summary"]["fail"] == 0
    bad = tmp_path / "neg.json"
    assert main(["verify", "--scenario", "negative_control", "--points", "2",
                 "--out", str(bad)]) == 1
    assert main(["verify", "--scenario", "flat_vacuum", "--points", "0",
                 "--out", str(rep)]) == 0


def test_verify_refuses_a_repeated_scenario_id(tmp_path, capsys):
    # a report names each point by (scenario, point): two scenarios with
    # one id, a built-in given twice or two files, would share those keys
    data = json.loads((Path(tidalbundle.__file__).parent / "scenarios"
                       / "flat_vacuum.json").read_text())
    files = []
    for k, alpha in enumerate((0.5, 2.0)):
        files.append(tmp_path / f"twin{k}.json")
        files[-1].write_text(json.dumps({**data, "id": "twin",
                                         "alpha": alpha}))
    out = tmp_path / "r.json"
    for refs, sid in ((["flat_vacuum"] * 2, "flat_vacuum"),
                      (list(map(str, files)), "twin")):
        argv = ["verify", "--points", "2", "--out", str(out)]
        for ref in refs:
            argv += ["--scenario", ref]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: scenario id {sid!r} is given twice\n")
        assert not out.exists()


def test_verify_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--scenario", "flat_uniform_b", "--points", "3",
            "--seed", "9"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_alphas_may_start_negative(tmp_path):
    # "--alphas -1,..." binds the list as "--alphas=-1,..." does
    for command in ("verify", "sweep"):
        outs = [tmp_path / f"{command}{k}" for k in range(2)]
        args = [command, "--scenario", "flat_uniform_b", "--points", "1"]
        assert main(args + ["--alphas", "-1,0.5,1,3",
                            "--out", str(outs[0])]) == 0
        assert main(args + ["--alphas=-1,0.5,1,3",
                            "--out", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].read_text().splitlines()[1].split(",")[2] == "-1.0"


def test_sweep_formats(tmp_path):
    csv_path = tmp_path / "s.csv"
    assert main(["sweep", "--scenario", "flat_coulomb", "--points", "1",
                 "--alphas", "0,0.5", "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("scenario,point,alpha")
    assert len(lines) == 3
    json_path = tmp_path / "s.json"
    assert main(["sweep", "--scenario", "flat_coulomb", "--points", "1",
                 "--alphas", "0,0.5", "--format", "json",
                 "--out", str(json_path)]) == 0
    rows = json.loads(json_path.read_text())
    assert rows[0]["alpha"] == 0.0
    # csv cells are repr floats: parse one back exactly
    cell = lines[1].split(",")[11]
    assert float(cell) == rows[0]["tidal_trace"]


def test_sweep_plot_draws_one_curve_per_point(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--scenario", "flat_coulomb", "--points", "3",
                 "--alphas", "0,0.5,1", "--out", str(out), "--plot"]) == 0
    root = ET.fromstring((tmp_path / "s.svg").read_text())
    svg = "{http://www.w3.org/2000/svg}"
    assert len(list(root.iter(svg + "polyline"))) == 3
    assert "sweep: flat_coulomb" in [t.text for t in root.iter(svg + "text")]


def test_truncated_simulation_exit_code(tmp_path):
    case = tmp_path / "infall.json"
    case.write_text(json.dumps(INFALL))
    out = tmp_path / "i.csv"
    assert main(["simulate", "--scenario", str(case), "--out", str(out)]) == 3
    assert "# truncated" in out.read_text()


def test_echo_defaults(capsys):
    assert main(["compute", "--echo-defaults"]) == 0
    base = json.loads(capsys.readouterr().out)
    assert base["metric"]["name"] == "minkowski"
    assert main(["verify", "--scenario", "cyclotron", "--echo-defaults"]) == 0
    full = json.loads(capsys.readouterr().out)
    assert full["integrator"]["rtol"] == 1e-12


def test_echo_defaults_integrator_is_integrator_config(capsys):
    assert main(["compute", "--echo-defaults"]) == 0
    echoed = json.loads(capsys.readouterr().out)["integrator"]
    cfg = IntegratorConfig()
    assert echoed.keys() == {f.name for f in dataclasses.fields(cfg)}
    for name, value in echoed.items():
        want = getattr(cfg, name)
        assert (tuple(value) if name == "t_span" else value) == want, name


def test_echo_defaults_round_trips(tmp_path, capsys):
    # a built-in's defaulted document, read back as a scenario file, is
    # echoed with the same bytes
    for sid in BUILTIN_IDS:
        assert main(["compute", "--echo-defaults", "--scenario", sid]) == 0
        echoed = capsys.readouterr().out
        path = tmp_path / f"{sid}.json"
        path.write_text(echoed)
        assert main(["compute", "--echo-defaults", "--scenario",
                     str(path)]) == 0
        assert capsys.readouterr().out == echoed, sid


# a value that each catalog parameter accepts
PARAM_VALUES = {"coordinates": "spherical", "M": 1.0, "Q": 0.5,
                "allow_naked": False, "B": 1.5, "E": 0.3, "axis": "y",
                "c": 0.8}


def test_listed_params_are_the_accepted_ones(capsys):
    # every parameter the listing names is accepted by its field, and a
    # parameter it does not name is refused
    assert main(["list", "--format", "json"]) == 0
    listing = json.loads(capsys.readouterr().out)
    for kind, build in (("metrics", builtin_metric),
                        ("potentials", builtin_potential)):
        for name, entry in listing[kind].items():
            params = {p: PARAM_VALUES[p] for p in entry["params"]}
            assert build(name, params).name == name
            with pytest.raises(ValueError,
                               match=rf"unexpected {name} params \['nosuch'\]"):
                build(name, {**params, "nosuch": 1.0})


@pytest.mark.parametrize("metric, potential, message", [
    ({"name": "schwarzschild"}, {"name": "zero"},
     "metric: schwarzschild requires params ['M']"),
    ({"name": "minkowski"}, {"name": "uniform_b", "params": {"axis": "x"}},
     "potential: uniform_b requires params ['B']"),
    ({"name": "reissner_nordstrom",
      "params": {"M": 1.0, "Q": 2.0, "allow_naked": "false"}},
     {"name": "zero"},
     "metric: reissner_nordstrom param allow_naked must be true or false, "
     "got 'false'"),
    ({"name": "reissner_nordstrom", "params": {"M": 1.0, "Q": 0.5,
                                               "allow_naked": 0}},
     {"name": "zero"},
     "metric: reissner_nordstrom param allow_naked must be true or false, "
     "got 0"),
    ({"name": "minkowski"}, {"name": "uniform_b", "params": {"B": True}},
     "potential: uniform_b param B must be a number, got True"),
    ({"name": "schwarzschild", "params": {"M": True}}, {"name": "zero"},
     "metric: schwarzschild param M must be a number, got True"),
    ({"name": "minkowski", "params": {"coordinates": "spherical"}},
     {"name": "coulomb", "params": {"Q": False}},
     "potential: coulomb param Q must be a number, got False"),
    ({"name": "minkowski"}, {"name": "zero", "params": {"Q": 1.0}},
     "potential: unexpected zero params ['Q']"),
    ({"name": "minkowski"}, {"name": "uniform_b", "params": {"B": "nan"}},
     "potential: uniform_b param B must be a number, got 'nan'"),
    ({"name": "minkowski"}, {"name": "uniform_b", "params": {"B": "inf"}},
     "potential: uniform_b param B must be a number, got 'inf'"),
    ({"name": "schwarzschild", "params": {"M": "1e400"}}, {"name": "zero"},
     "metric: schwarzschild param M must be a number, got '1e400'"),
    ({"name": "schwarzschild", "params": {"M": "1.0"}}, {"name": "zero"},
     "metric: schwarzschild param M must be a number, got '1.0'"),
    ({"name": "minkowski", "params": {"coordinates": "polar"}},
     {"name": "zero"}, "metric: unknown minkowski coordinates 'polar'"),
    ({"name": "reissner_nordstrom", "params": {"M": 0.0, "Q": 0.0}},
     {"name": "zero"}, "metric: reissner_nordstrom requires M > 0"),
    ({"name": "minkowski"}, {"name": "uniform_e",
                             "params": {"E": 1.0, "axis": "w"}},
     "potential: uniform_e axis must be x, y, or z, got 'w'"),
    ({"name": "minkowski"}, {"name": "dipole"},
     "potential: unknown potential 'dipole'"),
], ids=["missing-M", "missing-B", "naked-string", "naked-number",
        "B-boolean", "M-boolean", "Q-boolean", "zero-extra", "B-nan-string",
        "B-inf-string", "M-overflow-string", "M-numeric-string",
        "polar-coordinates", "rn-M-zero", "E-axis-w", "unknown-potential"])
def test_bad_catalog_params_exit_two(tmp_path, capsys, metric, potential,
                                     message):
    # refused with the parameter named, never a traceback and exit 1
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "id": "s", "metric": metric, "potential": potential,
        "initial": {"x0": [0.0, 10.0, 1.5, 0.0], "y0": [1.0, 0, 0, 0]}}))
    assert main(["compute", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_bad_inputs_exit_two(tmp_path, capsys):
    assert main(["simulate", "--scenario", "nosuch_scenario"]) == 2
    assert main(["simulate"]) == 2
    assert main(["simulate", "--scenario", "a", "--scenario", "b"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"id": "x"}')  # metric is required
    assert main(["compute", "--scenario", str(bad)]) == 2
    capsys.readouterr()
    # and so is a number past the float range, which json reads as an int
    huge = tmp_path / "huge.json"
    huge.write_text('{"id": "x", "metric": {"name": "minkowski"}, '
                    '"alpha": 1' + "0" * 400 + '}')
    assert main(["compute", "--scenario", str(huge)]) == 2
    assert capsys.readouterr().err == (
        f"error: {huge}: invalid scenario at alpha: numbers must be finite\n")
    # a 1e300 fiber component, left unnormalized, whose g(y,y) is not
    # finite, is refused at load; a scenario the loader accepts whose
    # compute result is not finite, a 1e300 coupling, is refused by compute
    src = Path(tidalbundle.__file__).parent / "scenarios"
    for name, edit, error in (
            ("cyclotron", {"initial": {"x0": [0.0, 0.0, 0.0, 0.0],
                                       "y0": [1e300, 0.1, 0, 0],
                                       "normalize": "none"}},
             "{path}: initial.y0: g(y,y) = -inf is not finite"),
            ("reissner_nordstrom", {"alpha": 1e300}, "compute result is not "
             "finite at curvature/nonlinear_curvature/0/0/0")):
        path = tmp_path / f"{name}_1e300.json"
        path.write_text(json.dumps({**json.loads(
            (src / f"{name}.json").read_text()), **edit}))
        with np.errstate(all="ignore"):
            assert main(["compute", "--scenario", str(path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {error.format(path=path)}\n")
    # an int longer than the interpreter converts (4300 digits by default)
    # is refused as the parser raises it
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"id": "x", "metric": {"name": "minkowski"}, '
                        '"alpha": 1' + "0" * 5000 + '}')
    assert main(["compute", "--scenario", str(long_int)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {long_int}: not valid JSON: ")
    # so are bytes that are not UTF-8, and nesting past the parser's depth
    for name, raw in (("latin.json", b'\xff\xfe{"id": "x"}'),
                      ("deep.json", b"[" * 100_000 + b"]" * 100_000)):
        path = tmp_path / name
        path.write_bytes(raw)
        assert main(["compute", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: not valid JSON: ")
    # an output path that cannot be written is bad input too
    unwritable = tmp_path / "missing" / "x.json"
    assert main(["compute", "--scenario", "flat_vacuum", "--out",
                 str(unwritable)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    # an alpha list with no values is an argument error, not the defaults
    for command in ("verify", "sweep"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", "flat_vacuum", "--alphas", ",",
                  "--out", str(tmp_path / command)])
        assert exc.value.code == 2
        assert "has no values" in capsys.readouterr().err
        assert not (tmp_path / command).exists()
    # so is a coupling that is not a finite number
    for command, alphas in (("verify", "nan,1"), ("sweep", "inf"),
                            ("sweep", "0.5,-inf")):
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", "flat_vacuum", "--points", "1",
                  "--alphas", alphas, "--out", str(tmp_path / command)])
        assert exc.value.code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / command).exists()
    # and so is an alpha list or a count that does not parse
    for flag, value, error in (("--alphas", "a,b", "bad alpha list 'a,b'"),
                               ("--seed", "x", "bad count 'x'")):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--scenario", "flat_vacuum", flag, value,
                  "--out", str(tmp_path / "verify")])
        assert exc.value.code == 2
        assert error in capsys.readouterr().err
        assert not (tmp_path / "verify").exists()
    # and a negative seed, which no sampler takes, or point count, which
    # would judge nothing and pass
    for command, flag, value in (("verify", "--seed", "-1"),
                                 ("sweep", "--seed", "-5"),
                                 ("verify", "--points", "-1"),
                                 ("sweep", "--points", "-3")):
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", "flat_vacuum", flag, value,
                  "--out", str(tmp_path / command)])
        assert exc.value.code == 2
        assert "is negative" in capsys.readouterr().err
        assert not (tmp_path / command).exists()
    # a sampling box with no point in the chart, inside the horizon or on
    # the axis, is refused after 1000 draws in a row, not drawn forever
    for name, box in (("horizon", [[0.0, 1.0], [0.5, 1.0], [0.7, 2.4],
                                   [0.0, 6.2]]),
                      ("axis", [[0.0, 1.0], [4.0, 50.0], [0.0, 0.0],
                                [0.0, 6.2]])):
        path = tmp_path / f"rn_{name}.json"
        path.write_text(json.dumps({**json.loads(
            (src / "reissner_nordstrom.json").read_text()),
            "sampling": {"box": box}}))
        for command in ("verify", "sweep"):
            out = tmp_path / f"{name}.{command}"
            assert main([command, "--scenario", str(path), "--points", "1",
                         "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                "error: scenario 'reissner_nordstrom': 1000 draws in a row "
                f"from sampling.box {box} fell outside the chart\n")
            assert not out.exists()


def test_console_script_entry_point(tmp_path):
    # the `tidal` entry point, end to end, in a fresh interpreter
    src = Path(tidalbundle.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "tidalbundle", "verify", "--scenario",
         "flat_vacuum", "--points", "1", "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert "passed" in proc.stdout


def test_commands_leave_scipy_integrate_unloaded(tmp_path):
    # no command loads scipy or jsonschema: importing the package, list, a
    # command that does not integrate, both integrating commands on
    # rk45-adaptive, a one-point verify, and a compute on a scenario file
    # given by path, which the in-repo schema check reads
    src = Path(tidalbundle.__file__).parents[1]
    written = shutil.copy(src / "tidalbundle" / "scenarios" / "cyclotron.json",
                          tmp_path / "written.json")
    code = ("import sys, tidalbundle, tidalbundle.cli\n"
            "def loaded():\n"
            "    roots = {m.split('.')[0] for m in sys.modules}\n"
            "    print('loaded', *(r in roots for r in ('scipy', 'jsonschema')))\n"
            "def run(*argv):\n"
            f"    out = {str(tmp_path)!r} + '/' + argv[0] + '.out'\n"
            "    assert tidalbundle.cli.main([*argv, '--out', out]) == 0\n"
            "    loaded()\n"
            "loaded()\n"
            "run('list')\n"
            "for cmd in ('compute', 'simulate', 'deviate'):\n"
            "    run(cmd, '--scenario', 'cyclotron')\n"
            "run('verify', '--scenario', 'flat_vacuum', '--points', '1')\n"
            f"run('compute', '--scenario', {str(written)!r})\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    # verify prints its summary table to stdout too
    loaded = [line for line in proc.stdout.splitlines()
              if line.startswith("loaded ")]
    assert loaded == ["loaded False False"] * 7


def test_runs_where_jsonschema_cannot_be_imported(tmp_path):
    # numpy is the only runtime dependency: with `import jsonschema`
    # raising, a scenario file given by path computes the built-in's bytes,
    # an invalid one is refused with the words jsonschema would give, and
    # verify runs on it
    src = Path(tidalbundle.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    block = "import sys; sys.modules['jsonschema'] = None\n"
    proc = subprocess.run([sys.executable, "-c", block + "import jsonschema"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1 and "ModuleNotFoundError" in proc.stderr

    def tidal(*argv):
        code = block + "from tidalbundle.cli import main\nsys.exit(main())\n"
        return subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, env=env)

    shipped = src / "tidalbundle" / "scenarios" / "reissner_nordstrom.json"
    copy = shutil.copy(shipped, tmp_path / "rn.json")
    builtin = tidal("compute", "--scenario", "reissner_nordstrom")
    assert builtin.returncode == 0, builtin.stderr
    by_path = tidal("compute", "--scenario", str(copy))
    assert (by_path.returncode, by_path.stdout, by_path.stderr) == (
        0, builtin.stdout, b"")
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({**json.loads(shipped.read_text()),
                                   "alpha": "big"}))
    proc = tidal("compute", "--scenario", str(invalid))
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (
        2, b"", f"error: {invalid}: invalid scenario at alpha: 'big' is not "
        "of type 'number'\n")
    proc = tidal("verify", "--scenario", str(copy), "--points", "1", "--out",
                 str(tmp_path / "report.json"))
    assert proc.returncode == 0, proc.stderr
    assert b"0 failed" in proc.stdout


def _mu_scenario_ascii_locale(tmp_path):
    """A cyclotron scenario file whose id holds a non-ASCII letter, and the
    environment of a fresh interpreter under an ASCII locale."""
    src = Path(tidalbundle.__file__).parents[1]
    cyclotron = src / "tidalbundle" / "scenarios" / "cyclotron.json"
    path = tmp_path / "mu.json"
    path.write_text(json.dumps({**json.loads(cyclotron.read_text()),
                                "id": "\u00b5-cyclotron"}, ensure_ascii=False),
                    encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(src), "LC_ALL": "C",
           "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    return path, env


def test_scenario_and_plot_files_are_utf8_in_any_locale(tmp_path):
    # JSON is UTF-8 (RFC 8259) and the SVG declares UTF-8, so a scenario id
    # with a non-ASCII letter reads and plots under an ASCII locale too
    path, env = _mu_scenario_ascii_locale(tmp_path)
    for argv in (["compute"], ["simulate", "--plot"]):
        proc = subprocess.run(
            [sys.executable, "-m", "tidalbundle", *argv, "--scenario",
             str(path), "--out", str(tmp_path / f"{argv[0]}.out")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
    payload = json.loads((tmp_path / "compute.out").read_text(encoding="utf-8"))
    assert payload["scenario"] == "\u00b5-cyclotron"
    root = ET.fromstring((tmp_path / "simulate.svg").read_bytes())
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "worldline: \u00b5-cyclotron" in texts


def test_stdout_is_utf8_in_any_locale(tmp_path):
    # a CSV row carries the scenario id unescaped; on stdout it is the bytes
    # --out writes, under an ASCII locale with UTF-8 mode off too
    path, env = _mu_scenario_ascii_locale(tmp_path)
    args = [sys.executable, "-X", "utf8=0", "-m", "tidalbundle", "sweep",
            "--scenario", str(path), "--points", "1", "--alphas", "0,1"]
    out = tmp_path / "sweep.csv"
    proc = subprocess.run(args + ["--out", str(out)], capture_output=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(args, capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "\u00b5-cyclotron".encode("utf-8") in proc.stdout
    assert proc.stdout == out.read_bytes()


def test_verify_progress_logging_keeps_report_bytes(tmp_path):
    # TIDAL_LOG=info adds one stderr line per sampled point, then one on
    # where the time went, and nothing else
    src = Path(tidalbundle.__file__).parents[1]
    args = [sys.executable, "-m", "tidalbundle", "verify", "--scenario",
            "flat_vacuum", "--points", "2", "--out"]
    runs = {}
    for level in ("warning", "info"):
        out = tmp_path / f"{level}.json"
        env = {**os.environ, "PYTHONPATH": str(src), "TIDAL_LOG": level}
        proc = subprocess.run(args + [str(out)], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        runs[level] = (out.read_bytes(), proc.stderr)
    assert runs["info"][0] == runs["warning"][0]
    assert runs["warning"][1] == ""
    *lines, timing = runs["info"][1].splitlines()
    assert lines == [f"INFO tidalbundle: verify flat_vacuum: point {i} done"
                     for i in range(2)]
    assert timing.startswith("INFO tidalbundle: verify: 2 points in ")


def test_verify_logs_where_its_time_goes(tmp_path, capsys, caplog):
    # after the report is written: the point count, the suite's seconds,
    # the report's bytes and the seconds spent serializing it
    out = tmp_path / "r.json"
    with caplog.at_level(logging.INFO, logger="tidalbundle"):
        assert main(["verify", "--scenario", "flat_vacuum", "--points", "2",
                     "--out", str(out)]) == 0
    timing = re.fullmatch(r"verify: 2 points in (\d+\.\d{3}) s; report "
                          r"(\d+) bytes, serialized in (\d+\.\d{3}) s",
                          caplog.records[-1].getMessage())
    assert timing is not None
    assert int(timing[2]) == out.stat().st_size
    assert [r.getMessage() for r in caplog.records[:-1]] == [
        f"verify flat_vacuum: point {i} done" for i in range(2)]
    assert "verify:" not in capsys.readouterr().out
