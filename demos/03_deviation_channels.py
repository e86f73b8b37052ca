"""Worldline deviation three ways, and why the channels agree.

1. the linearized flow in the adapted channel (tidal tensor only),
2. an explicit neighboring worldline, finite-differenced,
3. the classical special-relativistic form with the velocity-coupling
   force term.

The third matches the first after a rate-channel conversion, but only
for variations that preserve the fiber norm: the initial rate must be
g-orthogonal to the velocity.  The demo shows the agreement, then breaks
the condition to show the channels answering different questions.
"""

import numpy as np

from tidalbundle import (IntegratorConfig, builtin_metric, builtin_potential,
                         connection_data, convert_deviation_frame,
                         integrate_deviation_classical,
                         integrate_deviation_tidal, phase_point,
                         two_worldline_oracle)
from tidalbundle.dynamics import normalize_velocity

cart = builtin_metric("minkowski")
ub = builtin_potential("uniform_b", {"B": 2.0, "axis": "z"})
alpha = 0.7
g = np.diag([-1.0, 1, 1, 1])
u0 = normalize_velocity(g, [1.0, 0.3, 0.0, 0.0], -1.0)
p = phase_point(cart, np.zeros(4), u0)
w0 = np.array([0.0, 0.5, -0.3, 0.7])
cfg = IntegratorConfig(t_span=(0.0, 5.0), samples=101,
                       rtol=1e-12, atol=1e-12)

# --- adapted channel vs an explicit neighbor ---------------------------
v0 = np.array([0.0, 0.1, 0.05, 0.0])
dev = integrate_deviation_tidal(cart, ub, alpha, p, w0, v0, cfg)
for eps in (1e-4, 1e-5):
    fd = two_worldline_oracle(cart, ub, alpha, p, w0, v0, eps, cfg)
    err = np.max(np.abs(fd.w - dev.w))
    print(f"neighbor at eps = {eps:.0e}: max gap to linearized flow {err:.3e}")
print("the gap shrinks linearly with eps: the linearized flow is the limit.")

# --- classical form ----------------------------------------------------
B1 = connection_data(cart, ub, alpha, p).contortion.jacobian
om0 = np.array([0.1, 0.02, -0.05, 0.04])
om0 += (g @ u0 @ om0) * u0              # norm-preserving sector
cl = integrate_deviation_classical(cart, ub, alpha, p, w0, om0, cfg)
v0 = om0 + B1 @ w0
ad = integrate_deviation_tidal(cart, ub, alpha, p, w0, v0, cfg)
ad_lc = convert_deviation_frame(cart, ub, alpha, ad, "levi-civita")
gap = np.max(np.abs(cl.w - ad_lc.w)) / np.max(np.abs(cl.w))
print(f"\nclassical vs adapted channel, orthogonal initial rate: "
      f"rel gap {gap:.3e}")

om_bad = np.array([0.1, 0.02, -0.05, 0.04])
cl2 = integrate_deviation_classical(cart, ub, alpha, p, w0, om_bad, cfg)
v_bad = om_bad + B1 @ w0
ad2 = integrate_deviation_tidal(cart, ub, alpha, p, w0, v_bad, cfg)
ad2_lc = convert_deviation_frame(cart, ub, alpha, ad2, "levi-civita")
gap2 = np.max(np.abs(cl2.w - ad2_lc.w)) / np.max(np.abs(cl2.w))
print(f"same initial data without the projection:        rel gap {gap2:.3e}")
print("\nthe classical family is built from proper-time curves, which")
print("conserve g(u, rate); only variations in that sector are shared")
print("by both formulations, and there they agree to integrator noise.")
