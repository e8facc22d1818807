"""Simulation lab for the hyperbolic nonlinear Schrodinger equation.

i u_t + u_xx - Delta_y u + lambda |u|^sigma u = 0 on periodic boxes, plus its
elliptic and 1-D profile cousins through a shared signature vector alpha.
"""

__version__ = "0.1.0"

from .fields import (
    Grid, ComplexField, NormBundle, GridError, FieldDataError,
    constant_field, gaussian_field, harmonic_field,
    random_smooth_field, spectral_derivative, norms,
    apply_linear_propagator, boundary_mass_fraction,
)
from .observables import (
    ObservableSample, ObservableSeries, ConservationReport,
    energy, sample, verify_conservation,
)
from .evolution import (
    EvolutionProblem, RunConfig, StepperState, FieldTrajectory,
    step_strang, run, residual_hnls, harmonic_saddle_potential,
    STATUS_RUNNING, STATUS_DONE, STATUS_BLOWNUP,
)
from .transforms import (
    TransformState, TransformError, SymmetryParams,
    integrate_transform_odes, constraint_residuals, closed_form_b,
    apply_pct, apply_symmetry, signature_quadratic,
)
from .radial import (
    RadialProfile, RadialTrajectory, RadialRunResult, ConeField,
    GroundState, ConcentrationReport, ConcentrationScan, BC_DIRICHLET,
    BC_REGULARITY,
    make_radial_profile, radial_mass, radial_energy, theta_moment,
    radial_weights, radial_laplacian_dense, solve_radial, lift_to_cone,
    cone_trace_jump, shoot_ground_state, concentration_scan,
    save_radial_csv, load_radial_csv,
)
from .families import (
    PlaneWaveSpec, StandingWaveSpec, SemiclassicalSpec,
    lift_profile, standing_wave_lift, wave_field, bound_state_defect,
    refine_bound_state, semiclassical_field,
)
from .coupled import (
    DecomposedState, CoupledSeries, StabilityReport, TwoWaveSeries,
    lift_structured, make_decomposed, step_decomposed, step_perturbation,
    run_decomposed, profile_hypothesis_warnings, stability_run,
    two_wave_run,
)
from .artifacts import (
    RunManifest, SnapshotError,
    write_snapshot, read_snapshot, snapshot_nbytes,
    save_series_csv, load_series_csv, file_digest, write_json,
)
from .runner import (
    ExperimentConfig, ConfigError, KINDS, parse_config, run_experiment,
)
