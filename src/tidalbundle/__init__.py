"""Tangent-bundle tidal tensor engine for combined gravity and electromagnetism.

A coupling constant alpha (charge-to-mass ratio) deforms the geodesic spray
of a Lorentzian metric by a Faraday term.  The package builds the deformed
spray, its nonlinear and affine connections, the associated curvature and
tidal tensors, integrates charged worldlines and their linearized neighbor
separations, and machine-checks the tensor identities and field-equation
rewrites that the construction is supposed to satisfy.
"""

__version__ = "0.1.0"

from .connection import (ConnectionData, ContortionFamily, FieldFrame, Sample,
                         TraceDecomposition, connection_data,
                         contortion_vector, d_covariant_derivative,
                         field_frame, fiber_parts, phase_point,
                         strong_torsion)
from .curvature import TidalPacket, tidal_packet, trace_decomposition
from .dynamics import (IntegratorConfig, Trajectory, convert_deviation_frame,
                       integrate_deviation_classical,
                       integrate_deviation_tidal, integrate_geodesic_lc,
                       integrate_worldline, normalize_velocity, trajectory_csv,
                       two_worldline_oracle, worldline_rhs)
from .errors import (ChartDomainError, FrameMismatchError,
                     NonFiniteFiberError, NullFiberError, ScenarioError,
                     TidalError)
from .fields import (METRIC_CATALOG, POTENTIAL_CATALOG, MetricField,
                     PotentialField, base_riemann, builtin_metric,
                     builtin_potential, christoffel, coords_compatible,
                     current, faraday, metric_from_callable,
                     potential_from_callable, stress_energy_em)
from .jets import Jet, jeinsum, jsqrt, value_of
from .scenario import (BUILTIN_IDS, DEFAULT_SUITE, Scenario, builtin_scenario,
                       builtin_scenarios, load_scenario, resolve_scenario,
                       scenario_defaults, scenario_from_dict)
from .tensors import DIM, PhasePoint, norm_and_sign
from .verify import (alpha_sweep, report_json, report_summary_table,
                     run_suite, sample_phase_points)

__all__ = [name for name in dir() if not name.startswith("_")]
