"""tidalbundle benchmark: one workload per invocation, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S          # every workload

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1``
it replays a fixed pass of operations alternately with and without
per-layer spans and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``perfbench/README.md`` for workloads and metrics.
"""

import os

# one thread: pin BLAS pools before numpy is imported anywhere
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, min_samples  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
IMPORT_REPEATS = 3
MIN_PASSES = 3               # traced and untraced passes, at least
REF_INTERVAL_S = 0.05        # reference kernel at most this often
HARD_LIMIT_S = 150.0         # stop sampling past this, whatever the minimum
SETUP_REPEATS = 3            # fresh-interpreter set-ups per run, at least

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import tidalbundle
for sid in sys.argv[1:]:
    tidalbundle.builtin_scenario(sid)
print(repr(time.perf_counter() - t0))
"""

IMPORT_MODULES = ("tidalbundle", "numpy", "scipy.integrate", "jsonschema",
                  "tidalbundle.jets", "tidalbundle.fields",
                  "tidalbundle.connection", "tidalbundle.curvature",
                  "tidalbundle.dynamics", "tidalbundle.scenario",
                  "tidalbundle.verify")

LAYER_COUNTS = ("fields.pack", "fields.christoffel", "fields.base_riemann",
                "jets.jeinsum", "connection.field_frame",
                "connection.fiber_parts_plain", "connection.fiber_parts_jet",
                "connection.phase_context", "dynamics.worldline_rhs")
LAYER_SELF = ("fields.pack", "fields.christoffel", "jets.jeinsum",
              "connection.field_frame", "connection.fiber_parts_plain",
              "connection.fiber_parts_jet", "connection.phase_context",
              "dynamics.worldline_rhs")
LAYER_TOTAL = (("connection.connection_data", "connection.connection_data.total_ms"),
               ("connection.strong_torsion", "connection.strong_torsion.total_ms"),
               ("connection.d_covariant_derivative",
                "connection.d_covariant_derivative.total_ms"),
               ("curvature.trace_decomposition", "curvature.trace_decomposition.total_ms"),
               ("curvature.tidal_packet", "curvature.tidal_packet.total_ms"),
               ("verify.sample_phase_points", "verify.sample_phase_points_ms"),
               ("verify.report_json", "verify.report_json_ms"))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_tidalbundle():
    sys.path.insert(0, str(SRC))
    try:
        import tidalbundle
    except ImportError as e:
        sys.exit(f"perfbench: cannot import tidalbundle from {SRC}: {e}")
    if not Path(tidalbundle.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: tidalbundle resolved outside {SRC}")
    return tidalbundle


def environment():
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "blas": blas,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS}}


# ---------------------------------------------------------------------------
# set-up in fresh interpreters


def measure_setup_once(scenario_ids):
    """Seconds to import tidalbundle and resolve scenarios in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, *scenario_ids],
                          env=child_env(), capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def measure_imports():
    """Median cumulative import time per module, from ``-X importtime``."""
    per_module = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import tidalbundle"], env=child_env(),
                              capture_output=True, text=True, timeout=60,
                              check=True)
        seen = {}
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            name = fields[2].strip()
            if name in per_module and fields[1].strip().isdigit():
                seen[name] = int(fields[1]) / 1e3
        for m in IMPORT_MODULES:
            per_module[m].append(seen.get(m, 0.0))
    return {m: statistics.median(v) for m, v in per_module.items()}


# ---------------------------------------------------------------------------
# operations


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, n, why):
        self.failed += n
        if len(self.errors) < 5:
            self.errors.append(why)


def execute(wl, inp, tally):
    """Run one operation and its gate; returns (output, latencies, seconds).

    Output is None when the operation raised or failed its gate.  Any
    exception is a failed operation, counted, never dropped.
    """
    tally.attempted += wl.samples_per_op
    t0 = time.perf_counter()
    try:
        out, lat = wl.run(inp)
    except Exception as e:  # an operation that raises is a counted failure
        tally.fail(wl.samples_per_op, f"{type(e).__name__}: {e}")
        return None, None, 0.0
    elapsed = time.perf_counter() - t0
    bad = wl.gate(inp, out)
    if bad:
        tally.fail(bad, f"gate failed on {bad} {wl.unit}(s)")
        return None, None, elapsed
    return out, lat, elapsed


def run_controls(wl):
    """Every negative control must register at least one failure."""
    rows = []
    for label, owner, inp in wl.controls():
        tally = Tally()
        execute(owner, inp, tally)
        rows.append((label, tally.failed, tally.attempted))
    return rows


REF_A = np.random.default_rng(0).random((4, 4))
REF_B = np.random.default_rng(1).random((4, 4, 4))


def reference_kernel():
    """Seconds for fixed small-array numpy and Python work (about 0.6 ms).

    It shares no code with tidalbundle, so no change to the package moves
    it; what moves it is how fast the core runs at the moment.  On a
    shared virtual machine other tenants slow the core by up to half for
    minutes at a time, and this kind of work (interpreter-bound calls on
    4x4 arrays) slows with it, so latencies divided by the kernel's median
    in the same run stay put while raw milliseconds do not.
    """
    t0 = time.perf_counter()
    x = REF_A
    for _ in range(60):
        y = np.einsum("ij,jkl->ikl", x, REF_B)
        x = REF_A + 1e-3 * y[:, :, 0]
        [float(v) for v in x[0]]
    return time.perf_counter() - t0


def timed_run(wl, seconds):
    """Cycle over the fixed operation set for ``seconds``, then summarise.

    The reference kernel runs before an operation whenever REF_INTERVAL_S
    has passed since it last ran, so its samples cover the run evenly.
    """
    inputs = [wl.inputs(k) for k in range(wl.n_ops)]
    tally = Tally()
    lat = {key: [] for key in ("op",) + wl.parts}
    ref, busy, work = [], 0.0, 0
    prints = [None] * wl.n_ops     # per input: report fingerprint, first run
    setup = [measure_setup_once(wl.scenario_ids)]
    execute(wl, inputs[0], Tally())                  # warm-up, not counted
    start = last_ref = time.perf_counter()
    ref.append(reference_kernel())
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        n = len(lat["op"])
        if elapsed > HARD_LIMIT_S or (elapsed >= seconds
                                      and n >= min_samples(wl.tail_pct)):
            break
        if k and k % wl.n_ops == 0:
            setup.append(measure_setup_once(wl.scenario_ids))
        if time.perf_counter() - last_ref >= REF_INTERVAL_S:
            ref.append(reference_kernel())
            last_ref = time.perf_counter()
        i = k % wl.n_ops
        k += 1
        out, sample, dt = execute(wl, inputs[i], tally)
        if out is None:
            continue
        if hasattr(wl, "fingerprint"):
            fp = wl.fingerprint(out)
            if prints[i] is None:
                prints[i] = fp
            elif fp != prints[i]:
                tally.fail(wl.samples_per_op, "report bytes differ between runs "
                           "of the same input")
                continue
            work += wl.checks(out)
        for key, values in sample.items():
            lat[key].extend(values)
        busy += dt
    setup.append(measure_setup_once(wl.scenario_ids))
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup_once(wl.scenario_ids))
    info = {"ops": k, "tally": tally, "setup": setup, "digest": None,
            "samples": len(lat["op"]), "ref_ms": 1e3 * statistics.median(ref),
            "ref_samples": len(ref)}
    if not lat["op"]:
        return {}, {}, info
    if hasattr(wl, "fingerprint") and None not in prints:
        info["digest"] = hashlib.sha256("".join(prints).encode()).hexdigest()

    ref_s = statistics.median(ref)
    op = np.asarray(lat["op"])
    p50 = float(np.percentile(op, 50))
    tail = float(np.percentile(op, wl.tail_pct))
    # The median and the throughput follow the host's speed from minute to
    # minute and are steadier in reference units; the tail sits where the
    # core is contended, which moves less than the reference does, so it
    # stays in milliseconds.
    metrics = {
        "op_p50": (p50 / ref_s, "ref"),
        "op_ms_tail": (1e3 * tail, "ms"),
        "ops_per_kref": (1e3 * len(op) * ref_s / busy, "1/kref"),
    }
    info["beyond_tail"] = int(np.sum(op > tail))
    # the raw figures, under the names the design notes use
    named = {"ops_per_s": (len(op) / busy, "1/s"),
             "op_ms_p50": (1e3 * p50, "ms")}
    tag = f"p{wl.tail_pct}"
    if wl.name == "verify_suite":
        named["suite.checks_per_s"] = (work / busy, "1/s")
        named["suite.point_ms_p50"] = (1e3 * p50, "ms")
        named[f"suite.point_ms_{tag}"] = (1e3 * tail, "ms")
    family = wl.name.split("_")[0]
    for part in wl.parts:
        v = np.asarray(lat[part]) * 1e3
        named[f"{family}.{part}_ms_p50"] = (float(np.percentile(v, 50)), "ms")
        named[f"{family}.{part}_ms_{tag}"] = (float(np.percentile(v, wl.tail_pct)), "ms")
    return metrics, named, info


# ---------------------------------------------------------------------------
# traced run


def run_pass(wl, inputs, tally, tracer=None):
    """One pass over fixed inputs; returns the seconds spent in the operations.

    The pass opens by resolving the workload's scenarios, untimed.  With a
    tracer, spans record only there and inside the operations, never inside
    the gates.
    """
    def recording(on):
        if tracer is not None:
            tracer.recording = on

    recording(True)
    for sid in wl.scenario_ids:
        wl.tb.builtin_scenario(sid)
    recording(False)
    busy = 0.0
    for inp in inputs:
        tally.attempted += wl.samples_per_op
        recording(True)
        t0 = time.perf_counter()
        try:
            out, _ = wl.run(inp)
        except Exception as e:  # counted, as in the untraced loop
            recording(False)
            tally.fail(wl.samples_per_op, f"{type(e).__name__}: {e}")
            continue
        busy += time.perf_counter() - t0
        recording(False)
        bad = wl.gate(inp, out)
        if bad:
            tally.fail(bad, f"gate failed on {bad} {wl.unit}(s)")
    return busy


def traced_run(wl, seconds):
    """Alternate untraced and traced passes over the first ``trace_ops`` inputs.

    Counts come from the first traced pass and must repeat in every other;
    times are those of the fastest pass.
    """
    inputs = [wl.inputs(k) for k in range(wl.trace_ops)]
    n_ops = wl.trace_ops * wl.samples_per_op
    tracer = Tracer()
    tally = Tally()
    untraced, traced, summaries, first_spans = [], [], [], None
    run_pass(wl, inputs, Tally())                # warm-up
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(traced) < MIN_PASSES) \
            and time.perf_counter() - start < HARD_LIMIT_S:
        untraced.append(run_pass(wl, inputs, tally))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_pass(wl, inputs, tally, tracer))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
        if first_spans is None:
            first_spans = list(tracer.spans)
    first = summaries[0]
    repeat_ok = all(s["calls"] == first["calls"]
                    and s["base_points"] == first["base_points"]
                    and s["rhs_calls"] == first["rhs_calls"]
                    for s in summaries)
    calls = first["calls"]

    def fastest_ms(key, name=None, per_op=True):
        vals = [s[key] if name is None else s[key].get(name, 0) for s in summaries]
        return min(vals) / 1e6 / (n_ops if per_op else 1)

    m = {}
    for name in LAYER_COUNTS:
        m[f"{name}.calls"] = (calls.get(name, 0) / n_ops, "count")
    for name in LAYER_SELF:
        m[f"{name}.self_ms"] = (fastest_ms("self_ns", name), "ms")
    for name, metric in LAYER_TOTAL:
        m[metric] = (fastest_ms("total_ns", name), "ms")
    m["connection.field_frame.per_base_point"] = (
        calls.get("connection.field_frame", 0) / first["base_points"]
        if first["base_points"] else 0.0, "ratio")
    m["dynamics.rhs_calls_per_traj"] = (
        first["rhs_calls"] / first["trajectories"] if first["trajectories"] else 0.0,
        "count")
    m["dynamics.driver_self_ms"] = (fastest_ms("driver_ns"), "ms")
    m["verify.checks_self_ms"] = (fastest_ms("self_ns", "verify.run_suite"), "ms")
    # resolving the workload's scenarios happens once per pass, not per op
    m["scenario.resolve_ms"] = (
        fastest_ms("total_ns", "scenario.resolve", per_op=False), "ms")
    m["trace.overhead_ms"] = ((min(traced) - min(untraced)) * 1e3 / n_ops, "ms")
    m["trace.untraced_ms"] = (min(untraced) * 1e3 / n_ops, "ms")
    info = {"passes": len(traced), "ops_per_pass": n_ops, "tally": tally,
            "repeat_ok": repeat_ok, "spans": first_spans, "summary": first}
    return m, info


def write_trace(wl, seed, info, metrics, env):
    """Spans of the first traced pass, kept in memory until now."""
    OUT_DIR.mkdir(exist_ok=True)
    names = sorted({s[0] for s in info["spans"]})
    index = {n: i for i, n in enumerate(names)}
    doc = {"workload": wl.name, "seed": seed, "env": env,
           "ops_per_pass": info["ops_per_pass"], "passes": info["passes"],
           "per_call_us": {
               name: {"calls": n,
                      "total": info["summary"]["total_ns"][name] / n / 1e3,
                      "self": info["summary"]["self_ns"][name] / n / 1e3}
               for name, n in info["summary"]["calls"].items()},
           "metrics": {k: v[0] for k, v in metrics.items()},
           "span_names": names,
           "spans": [[index[n], s, e, p] for n, s, e, p in info["spans"]]}
    path = OUT_DIR / f"trace-{wl.name}-seed{seed}.json"
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------


def run_workload(name, seed, seconds, trace):
    tb = import_tidalbundle()
    env = environment()
    wl = WORKLOADS[name](tb, seed)
    correct = True
    notes = []

    controls = run_controls(wl)
    for label, failed, attempted in controls:
        tripped = failed > 0
        correct &= tripped
        notes.append(f"negative control: {label}: failed {failed}/{attempted} "
                     f"(failed_ratio {failed / attempted:.3f}) "
                     f"{'tripped' if tripped else 'DID NOT TRIP'}")
    oracle = wl.oracle()
    if oracle is not None:
        ok, what = oracle
        correct &= ok
        notes.append(f"oracle: {what}: {'ok' if ok else 'FAILED'}")

    if trace:
        metrics, info = traced_run(wl, seconds)
        for mod, ms in measure_imports().items():
            metrics[f"setup.import.{mod}_ms"] = (ms, "ms")
        correct &= info["repeat_ok"]
        path = write_trace(wl, seed, info, metrics, env)
        notes.append(f"traced: {info['passes']} traced + {info['passes']} "
                     f"untraced passes of {info['ops_per_pass']} {wl.unit}(s); "
                     f"counts repeat across passes: {info['repeat_ok']}; "
                     f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics, named, info = timed_run(wl, seconds)
        metrics["setup_s"] = (statistics.median(info["setup"]), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        notes.append(f"{info['ops']} operations over {wl.n_ops} distinct inputs; "
                     f"{info['samples']} {wl.unit} samples; p{wl.tail_pct} has "
                     f"{info.get('beyond_tail', 0)} beyond it; reference kernel "
                     f"median {info['ref_ms']:.4f} ms over {info['ref_samples']} "
                     f"samples (1 ref); setup_s is the median of {len(info['setup'])}")
        if info.get("beyond_tail", 0) < 10:
            correct = False
            notes.append("fewer than 10 samples beyond the tail percentile")
        if info["digest"]:
            notes.append(f"report_json sha256 over the {wl.n_ops} suite calls "
                         f"(seed {seed}): {info['digest']}")
        for key in sorted(named):
            value, unit = named[key]
            notes.append(f"  {key:44s} {value:14.6g} {unit}")
    tally = info["tally"]
    correct &= tally.failed == 0
    for err in tally.errors:
        notes.append(f"failure: {err}")

    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(note)
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_ratio':44s} {ratio:14.6g} ratio "
          f"({tally.failed}/{tally.attempted} {wl.unit}s)")
    for key in sorted(metrics):
        value, unit = metrics[key]
        print(f"  {key:44s} {value:14.6g} {unit}")
    result = {"correct": bool(correct and tally.attempted > 0),
              "attempted": max(tally.attempted, 1), "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(seed, seconds, trace):
    """Every workload in turn, each in its own interpreter."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)], capture_output=True,
                              text=True, timeout=600)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "tidalbundle").is_dir():
        sys.exit(f"perfbench: no tidalbundle sources under {SRC}")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)} or all")
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
