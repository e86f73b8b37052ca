"""Run the machine-verification suite and read the report.

Every tensor identity and field-equation rewrite the package implements
is checked at randomly sampled phase points across the scenario catalog
and a grid of coupling values.  A deliberately broken connection (the
negative control) shows the checks have teeth.
"""

from tidalbundle import builtin_scenario, builtin_scenarios, run_suite
from tidalbundle.verify import report_summary_table

report = run_suite(builtin_scenarios(), points=10, seed=0)
print("default suite, 10 points per scenario:\n")
print(report_summary_table(report))

worst = max(report["checks"], key=lambda c: c["rel_residual"])
print(f"worst single check: {worst['check']} on {worst['scenario']} "
      f"(alpha = {worst['alpha']}), rel residual {worst['rel_residual']:.2e}")

# headroom is worst rel / tol: how much of its tolerance each check used
name, entry = max(report["check_summary"].items(),
                  key=lambda item: item[1]["headroom"])
print(f"least headroom: {name} used {entry['headroom']:.1e} of its "
      f"tolerance {entry['tol']:.0e}")

print("\nnegative control: same pipeline, connection nudged off-spray\n")
neg = run_suite([builtin_scenario("negative_control")], points=5, seed=0)
failed = sorted({c["check"] for c in neg["checks"] if not c["passed"]})
print(f"failed checks: {failed}")
print(f"summary: {neg['summary']['pass']} passed, {neg['summary']['fail']} failed")
print("\nonly the spray property breaks, exactly as it should: the other")
print("identities hold for any nonlinear connection, not just sprays.")
