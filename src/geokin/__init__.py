"""Exact geometric dynamics on Darboux charts.

Four chart kinds (symplectic, cosymplectic, contact, cocontact) with
rational-coefficient polynomial observables, musical isomorphisms, the
six canonical brackets, a sixteen-row catalog of dynamics fields,
monitored numeric flows, and kinetic solvers on the one-form dual.
"""

from .brackets import (
    BracketKind,
    bracket,
    bracket_via_bivector,
    canonical_bracket_kind,
    jacobiator,
    jacobiator_witness,
    kinds_for_chart,
    leibniz_defect,
)
from .chart import (
    Chart,
    ChartKind,
    OneFormExpr,
    VectorFieldExpr,
    canonical_eta,
    canonical_forms,
    canonical_tau,
    canonical_theta,
    differential,
    pairing,
    reeb_eta,
    reeb_tau,
)
from .fields import (
    Dynamics,
    Family,
    FieldDiagnostics,
    FieldSpec,
    Gauge,
    StrictnessError,
    catalog,
    diagnostics,
    divergence,
    jacobi_lie_bracket,
    lie_derivative_oneform,
    lie_derivative_twoform,
    make_field,
    two_form_omega,
)
from .flow import (
    BlowUpError,
    IntegrationError,
    IntegratorConfig,
    StepBudgetError,
    Trajectory,
    flow_map_logdet,
    integrate,
    write_trajectory_csv,
)
from .identities import LawReport, run_identity_suite, suite_passed
from .kinetics import (
    GridAxis,
    GridDensity,
    MomentumOneForm,
    ParticleEnsemble,
    ParticleKineticResult,
    StabilityError,
    adjudicate_density_coefficients,
    density_coefficients,
    density_vlasov_rhs,
    deposit,
    intertwine_residual,
    momentum_map,
    momentum_vlasov_rhs,
    read_grid,
    read_particles,
    seed_particles,
    solve_density_grid,
    solve_density_particle,
    write_grid,
    write_particles,
)
from .musical import SharpVariant, flat, sharp
from .poly import ParseError, Poly, parse

__version__ = "0.1.0"
