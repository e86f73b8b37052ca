"""The benchmark's workloads must find every package name they read.

perfbench/workloads.py and perfbench/run.py call tidalbundle through the
module object they are handed (tb.<name>), so a public name that is
renamed or deleted would surface only when the benchmark runs.  The files
are read here as text, never imported, so nothing is written under
perfbench/.
"""

import functools
import re
from pathlib import Path

import numpy as np

import tidalbundle
from tidalbundle.verify import TOLERANCES

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _text():
    return "".join((PERFBENCH / name).read_text()
                   for name in ("workloads.py", "run.py"))


def test_every_package_name_the_benchmark_reads_exists():
    paths = set(re.findall(r"\btb\.([A-Za-z_][\w.]*)", _text()))
    assert {"connection.unit_direction_low", "verify.TOLERANCES",
            "faraday", "run_suite"} <= paths
    missing = []
    for path in sorted(paths):
        try:
            functools.reduce(getattr, path.split("."), tidalbundle)
        except AttributeError:
            missing.append(path)
    assert missing == []


def test_every_tolerance_the_benchmark_reads_exists():
    names = set(re.findall(r"self\.tol\[\"([\w-]+)\"\]", _text()))
    assert "unit-direction-transport" in names
    assert names <= set(TOLERANCES)


def test_field_wrappers_take_the_benchmarks_call_form():
    # PointQueries.gate calls tb.faraday(field, x), and tracing.py wraps
    # christoffel and base_riemann by name around the same calls: each
    # takes a field and a point, and returns the arrays of its pack there
    calls = re.findall(r"\btb\.(faraday|christoffel|base_riemann)\(([^()]*)\)",
                       _text())
    assert ("faraday", "s.potential, p.x") in calls
    assert all(len(args.split(",")) == 2 for _, args in calls)
    assert {"christoffel", "base_riemann"} <= set(re.findall(
        r"\(\"fields\", \"(\w+)\"", (PERFBENCH / "tracing.py").read_text()))

    sc = tidalbundle.builtin_scenario("reissner_nordstrom")
    x = np.array([0.0, 8.0, 1.3, 0.4])
    mp, pp = sc.metric.pack(x), sc.potential.pack(x)
    for got, want in ((tidalbundle.faraday(sc.potential, x), (pp.F, pp.dF)),
                      (tidalbundle.christoffel(sc.metric, x),
                       (mp.gamma, mp.dgamma)),
                      (tidalbundle.base_riemann(sc.metric, x),
                       (mp.riemann, mp.ricci))):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
