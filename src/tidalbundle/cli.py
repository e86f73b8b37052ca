"""Command-line front end.

Subcommands
    compute    connection and curvature data at one phase point, as JSON
    simulate   integrate a charged worldline, write a trajectory CSV
    deviate    integrate a worldline plus its linearized neighbor separation
    verify     run the identity suite over scenarios, write a JSON report
    sweep      tabulate trace-level quantities across coupling values
    list       show catalog fields and built-in scenarios

Exit codes: 0 success, 1 verification failures, 2 bad input (scenario,
chart, or argument errors, or a non-finite compute result), 3 integration
left the chart early (partial output is still written).  Set TIDAL_LOG=info
(or debug) for progress messages on stderr: the seconds verify spends in
the suite and in serializing its report, and the right-hand-side count,
the accepted and rejected step counts and the shortest and longest
accepted step of simulate and deviate.  Text written to stdout is UTF-8 in
any locale, the bytes --out would write.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .connection import ConnectionData, Sample, field_frame
from .curvature import TidalPacket
from .dynamics import (integrate_deviation_tidal, integrate_worldline,
                       trajectory_csv)
from .errors import TidalError
from .fields import METRIC_CATALOG, POTENTIAL_CATALOG
from .scenario import (BUILTIN_IDS, DEFAULT_SUITE, _non_finite,
                       builtin_scenario, resolve_scenario, scenario_defaults)
from .svg import line_plot
from .tensors import PhasePoint
from .verify import (DEFAULT_ALPHAS, alpha_sweep, report_json,
                     report_summary_table, run_suite)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_TRUNCATED = 3

log = logging.getLogger("tidalbundle")


def _emit(text: str, out) -> None:
    """Write text to the file out, or to stdout when out is None, as UTF-8
    whatever the locale's encoding (a scenario id may hold any letter)."""
    if out is None:
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:          # a text-only stream stands in for stdout
            sys.stdout.write(text)
        else:
            sys.stdout.flush()
            buffer.write(text.encode("utf-8"))
    else:
        Path(out).write_text(text, encoding="utf-8")
        log.info("wrote %s", out)


def _plot_path(out) -> str:
    if out is None:
        return "tidal-plot.svg"
    return str(Path(out).with_suffix(".svg"))


def _tolist(a):
    return np.asarray(a).tolist()


def _phase_point_dict(p: PhasePoint) -> dict:
    return {
        "x": _tolist(p.x),
        "y": _tolist(p.y),
        "norm": float(p.norm),
        "causal_sign": int(p.causal_sign),
    }


def _single_scenario(args, command: str):
    refs = args.scenario or []
    if len(refs) != 1:
        raise SystemExit2(f"{command} needs exactly one --scenario (got {len(refs)})")
    return resolve_scenario(refs[0])


class SystemExit2(Exception):
    """Argument-level error reported with exit code 2."""


# ---------------------------------------------------------------------------
# subcommands


def cmd_compute(args) -> int:
    sc = _single_scenario(args, "compute")
    if args.at is not None:
        if not np.all(np.isfinite(args.at)):
            raise SystemExit2(f"--at values must be finite, got {args.at}")
        x = np.array(args.at[:4], dtype=float)
        y = np.array(args.at[4:], dtype=float)
        sc.metric.check_chart(x)
        sc.potential.check_chart(x)
        p = PhasePoint.create(sc.metric.pack(x).g, x, y)
    else:
        p = sc.initial_point
    # one sample serves both reads: one frame, one plain and one jet tier
    s = Sample(field_frame(sc.metric, sc.potential, p.x), sc.alpha, p.y,
               sc.nonspray_perturbation)
    cd, tp = ConnectionData.read(s, p), TidalPacket.read(s, p)
    payload = {
        "scenario": sc.id,
        "metric": {"name": sc.metric.name, "params": sc.metric.params},
        "potential": {"name": sc.potential.name, "params": sc.potential.params},
        "alpha": sc.alpha,
        "point": _phase_point_dict(p),
        "connection": {
            "christoffel": _tolist(cd.christoffel),
            "faraday_mixed": _tolist(cd.faraday_mixed),
            "faraday_fiber": _tolist(cd.faraday_fiber),
            "contortion_vector": _tolist(cd.contortion.vector),
            "contortion_jacobian": _tolist(cd.contortion.jacobian),
            "contortion_hessian": _tolist(cd.contortion.hessian),
            "contortion_third": _tolist(cd.contortion.third),
            "spray": _tolist(cd.spray),
            "nonlinear": _tolist(cd.nonlinear),
            "affine": _tolist(cd.affine),
        },
        "curvature": {
            "nonlinear_curvature": _tolist(tp.nonlinear_curvature),
            "tidal": _tolist(tp.tidal),
            "tidal_angular": _tolist(tp.tidal_angular),
            "tidal_trace": float(tp.tidal_trace),
            "gravity_tidal": _tolist(tp.gravity_tidal),
            "base_ricci": _tolist(tp.base_ricci),
            "curvature_block": _tolist(tp.curvature_block),
            "contortion_block": _tolist(tp.contortion_block),
            "d_ricci": _tolist(tp.d_ricci),
            "torsion_max": float(np.max(np.abs(tp.torsion))),
        },
    }
    bad = _non_finite(payload)
    if bad is not None:
        raise SystemExit2("compute result is not finite at "
                          + "/".join(str(k) for k in bad))
    _emit(report_json(payload), args.out)
    return EXIT_OK


def _finish_trajectory(traj, args, plot_series, plot_title, ylabel) -> int:
    log.info("%s: %d right-hand-side evaluations, %d steps accepted, "
             "%d rejected, step %.3g to %.3g", traj.method, traj.nfev,
             traj.accepted, traj.rejected, traj.min_step, traj.max_step)
    _emit(trajectory_csv(traj), args.out)
    if args.plot:
        svg = line_plot(plot_series, title=plot_title, xlabel="t", ylabel=ylabel)
        path = _plot_path(args.out)
        Path(path).write_text(svg, encoding="utf-8")
        log.info("wrote %s", path)
    if traj.truncated:
        log.warning("integration left the chart near t = %s", traj.exit_time)
        return EXIT_TRUNCATED
    return EXIT_OK


def cmd_simulate(args) -> int:
    sc = _single_scenario(args, "simulate")
    traj = integrate_worldline(sc.metric, sc.potential, sc.alpha,
                               sc.initial_point, sc.integrator)
    names = sc.metric.coord_names
    series = [(traj.t, traj.x[:, i], names[i]) for i in range(1, 4)]
    return _finish_trajectory(traj, args, series,
                              f"worldline: {sc.id}", "coordinate")


def cmd_deviate(args) -> int:
    sc = _single_scenario(args, "deviate")
    if not sc.has_deviation:
        raise SystemExit2(f"scenario {sc.id!r} has no deviation block")
    traj = integrate_deviation_tidal(sc.metric, sc.potential, sc.alpha,
                                     sc.initial_point, sc.w0, sc.v0,
                                     sc.integrator)
    sep = np.sqrt(np.sum(traj.w ** 2, axis=1))
    series = [(traj.t, sep, "|w|")]
    return _finish_trajectory(traj, args, series,
                              f"deviation: {sc.id}", "separation")


def _log_progress(scenario_id, idx) -> None:
    log.info("verify %s: point %d done", scenario_id, idx)


def cmd_verify(args) -> int:
    refs = args.scenario or list(DEFAULT_SUITE)
    scenarios = [resolve_scenario(r) for r in refs]
    start = time.perf_counter()
    report = run_suite(scenarios, points=args.points, seed=args.seed,
                       alphas=args.alphas, progress=_log_progress)
    suite_done = time.perf_counter()
    text = report_json(report)
    serialize_done = time.perf_counter()
    out = args.out or "report.json"
    Path(out).write_text(text, encoding="utf-8")
    # the report is ASCII (ensure_ascii), so its length is its byte count
    log.info("verify: %d points in %.3f s; report %d bytes, serialized in "
             "%.3f s", len(report["points"]), suite_done - start, len(text),
             serialize_done - suite_done)
    _emit(report_summary_table(report) + f"report written to {out}\n", None)
    if report["summary"]["fail"] > 0:
        return EXIT_VERIFY_FAILED
    return EXIT_OK


_SWEEP_COLUMNS = (
    "scenario", "point", "alpha", "x0", "x1", "x2", "x3",
    "y0", "y1", "y2", "y3",
    "tidal_trace", "gravity_trace", "contortion_quadratic", "divergence",
    "charge_density", "rel_residual_quadratic", "rel_residual_divergence",
    "rel_residual_trace_decomposition",
)


def _sweep_row_values(row) -> list:
    flat = dict(row)
    x = flat.pop("x")
    y = flat.pop("y")
    for i in range(4):
        flat[f"x{i}"] = x[i]
        flat[f"y{i}"] = y[i]
    return [flat[c] for c in _SWEEP_COLUMNS]


def cmd_sweep(args) -> int:
    sc = _single_scenario(args, "sweep")
    rows = alpha_sweep(sc, args.alphas, points=args.points, seed=args.seed)
    if args.format == "json":
        _emit(report_json(rows), args.out)
    else:
        lines = [",".join(_SWEEP_COLUMNS)]
        for row in rows:
            cells = [v if isinstance(v, str) else repr(v)
                     for v in _sweep_row_values(row)]
            lines.append(",".join(cells))
        _emit("\n".join(lines) + "\n", args.out)
    if args.plot:
        # one curve per sampled point: tidal trace against the coupling
        by_point = {}
        for row in rows:
            by_point.setdefault(row["point"], []).append(
                (row["alpha"], row["tidal_trace"]))
        series = []
        for pt, pairs in sorted(by_point.items()):
            pairs.sort()
            series.append(([a for a, _ in pairs], [v for _, v in pairs],
                           f"point {pt}"))
        path = _plot_path(args.out)
        Path(path).write_text(line_plot(series, title=f"sweep: {sc.id}",
                                        xlabel="alpha", ylabel="tidal trace"),
                              encoding="utf-8")
        log.info("wrote %s", path)
    return EXIT_OK


def cmd_list(args) -> int:
    if args.format == "json":
        payload = {
            "metrics": {n: {"params": list(ps), "summary": doc}
                        for n, (ps, doc) in METRIC_CATALOG.items()},
            "potentials": {n: {"params": list(ps), "summary": doc}
                           for n, (ps, doc) in POTENTIAL_CATALOG.items()},
            "scenarios": list(BUILTIN_IDS),
        }
        _emit(report_json(payload), args.out)
        return EXIT_OK
    lines = ["metrics:"]
    for n, (ps, doc) in METRIC_CATALOG.items():
        lines.append(f"  {n}({', '.join(ps)})  {doc}")
    lines.append("potentials:")
    for n, (ps, doc) in POTENTIAL_CATALOG.items():
        lines.append(f"  {n}({', '.join(ps)})  {doc}")
    lines.append("scenarios:")
    for sid in BUILTIN_IDS:
        sc = builtin_scenario(sid)
        pot = sc.potential.name
        lines.append(f"  {sid}  metric={sc.metric.name} potential={pot} "
                     f"alpha={sc.alpha}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _alpha_list(text: str):
    try:
        alphas = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad alpha list {text!r}")
    if not alphas:
        raise argparse.ArgumentTypeError(f"alpha list {text!r} has no values")
    if not np.all(np.isfinite(alphas)):
        raise argparse.ArgumentTypeError(
            f"alpha list {text!r} has a non-finite value")
    return alphas


def _count(text: str):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad count {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tidal",
        description="tangent-bundle geometry of gravity plus electromagnetism",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", action="append", metavar="ID_OR_PATH",
                        help="built-in scenario id or path to a JSON file "
                             "(repeatable for verify)")
    common.add_argument("--out", metavar="PATH",
                        help="output file (default: stdout, or report.json "
                             "for verify)")
    common.add_argument("--seed", type=_count, default=0,
                        help="random seed for phase-point sampling")
    common.add_argument("--echo-defaults", action="store_true",
                        help="print the fully defaulted scenario JSON and exit")

    pc = sub.add_parser("compute", parents=[common],
                        help="connection and curvature data at one point")
    pc.add_argument("--at", type=float, nargs=8, metavar="V",
                    help="override phase point: x0 x1 x2 x3 y0 y1 y2 y3")
    pc.set_defaults(fn=cmd_compute)

    ps = sub.add_parser("simulate", parents=[common],
                        help="integrate a charged worldline")
    ps.add_argument("--plot", action="store_true",
                    help="also write an SVG plot next to the CSV")
    ps.set_defaults(fn=cmd_simulate)

    pd = sub.add_parser("deviate", parents=[common],
                        help="integrate a worldline and its neighbor separation")
    pd.add_argument("--plot", action="store_true",
                    help="also write an SVG plot next to the CSV")
    pd.set_defaults(fn=cmd_deviate)

    pv = sub.add_parser("verify", parents=[common],
                        help="run the identity suite and write a report")
    pv.add_argument("--points", type=_count, default=50,
                    help="phase points per scenario (default 50)")
    pv.add_argument("--alphas", type=_alpha_list, default=None,
                    metavar="A,B,...", help="coupling values to test")
    pv.set_defaults(fn=cmd_verify)

    pw = sub.add_parser("sweep", parents=[common],
                        help="tabulate trace quantities across couplings")
    pw.add_argument("--points", type=_count, default=10,
                    help="phase points per coupling (default 10)")
    pw.add_argument("--alphas", type=_alpha_list, default=DEFAULT_ALPHAS,
                    metavar="A,B,...", help="coupling values to sweep")
    pw.add_argument("--format", choices=("csv", "json"), default="csv")
    pw.add_argument("--plot", action="store_true",
                    help="also write an SVG of tidal trace vs coupling")
    pw.set_defaults(fn=cmd_sweep)

    pl = sub.add_parser("list", parents=[common],
                        help="show catalog fields and built-in scenarios")
    pl.add_argument("--format", choices=("text", "json"), default="text")
    pl.set_defaults(fn=cmd_list)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("TIDAL_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # bind each --alphas to its value, so that a list led by a negative
    # coupling (--alphas -1,0.5) is not read as an option
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--alphas":
            argv[i:i + 2] = ["--alphas=" + argv[i + 1]]
    args = parser.parse_args(argv)
    try:
        if args.echo_defaults:
            if args.scenario:
                sc = resolve_scenario(args.scenario[0])
                _emit(report_json(sc.raw), args.out)
            else:
                _emit(report_json(scenario_defaults()), args.out)
            return EXIT_OK
        return args.fn(args)
    except (SystemExit2, TidalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
