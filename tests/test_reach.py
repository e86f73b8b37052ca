"""Every public name has a reader or a stated role.

A name in tidalbundle.__all__ (other than a submodule) is read when the
engine, the CLI or a demo loads it: a source file of the package (not
__init__.py, which only re-exports) or of demos/ that binds the name at
module level, by its definition or by an import, and reads it.  An
import alone, a keyword or a field that shares the name is no read.  A
name with no reader must be listed in ROLES with the reason it stays; a
new public name with neither fails here, and so does an entry that has
gained a reader or has left __all__.  tests/reach.py is the dynamic half:
it lists the functions that no command, demo or benchmark workload runs.
"""

import ast
import types
from pathlib import Path

import tidalbundle

ROOT = Path(__file__).resolve().parent.parent
READERS = sorted(p for p in (ROOT / "src" / "tidalbundle").glob("*.py")
                 if p.name != "__init__.py") + sorted(
                     (ROOT / "demos").glob("*.py"))

_PERFBENCH = ("perfbench reads it (its tracer wraps it by module and "
              "name, or a workload calls it); it goes with the "
              "benchmark's next revision")
ROLES = {
    "christoffel": _PERFBENCH,
    "faraday": _PERFBENCH,
    "base_riemann": _PERFBENCH,
    "strong_torsion": _PERFBENCH,
    "d_covariant_derivative": _PERFBENCH,
    "sample_phase_points": _PERFBENCH,
    "expected_rows": "tests/test_perfbench_reads.py holds perfbench's row "
                     "count to it",
    "integrate_geodesic_lc": "the Levi-Civita geodesic oracle that "
                             "acceptance criterion 06 holds uncharged "
                             "worldlines to",
    "metric_from_callable": "user-defined metrics, built from a callable "
                            "of x",
    "potential_from_callable": "user-defined potentials, built from a "
                               "callable of x",
}


def _reads(source):
    """Names a module binds at module level and reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            bound |= {a.asname or a.name for a in node.names}
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and node.id in bound}


def _public():
    return {name for name in tidalbundle.__all__
            if not isinstance(getattr(tidalbundle, name), types.ModuleType)}


def _read():
    return set().union(*(_reads(p.read_text()) for p in READERS))


def test_a_read_is_a_load_of_a_bound_name():
    # an import alone, a keyword and an attribute are no reads
    src = ("from m import a, b\n"
           "def d(y):\n"
           "    return b(a=y)\n"
           "def e():\n"
           "    return x.a + d(1)\n")
    assert _reads(src) == {"b", "d"}


def test_every_public_name_is_read_or_has_a_role():
    unread = _public() - _read()
    assert unread <= set(ROLES), (
        f"public names no source or demo reads, with no entry in ROLES: "
        f"{sorted(unread - set(ROLES))}")


def test_every_role_is_current():
    stale, gone = set(ROLES) & _read(), set(ROLES) - _public()
    assert not stale, f"ROLES entries that now have a reader: {sorted(stale)}"
    assert not gone, f"ROLES entries that left __all__: {sorted(gone)}"
    assert all(reason.strip() for reason in ROLES.values())
