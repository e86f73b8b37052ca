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
