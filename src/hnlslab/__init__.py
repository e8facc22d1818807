"""Simulation lab for the hyperbolic nonlinear Schrodinger equation.

i u_t + u_xx - Delta_y u + lambda |u|^sigma u = 0 on periodic boxes, plus its
elliptic and 1-D profile cousins through a shared signature vector alpha.

`import hnlslab` loads no submodule: each name below is imported from its
module on first access (PEP 562), so a process loads only the modules it
uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "fields": """
        Grid ComplexField NormBundle GridError FieldDataError
        constant_field gaussian_field harmonic_field random_smooth_field
        spectral_derivative norms apply_linear_propagator
        boundary_mass_fraction""",
    "observables": """
        ObservableSample ObservableSeries ConservationReport
        energy sample verify_conservation""",
    "evolution": """
        EvolutionProblem RunConfig StepperState FieldTrajectory
        step_strang run residual_hnls harmonic_saddle_potential
        STATUS_RUNNING STATUS_DONE STATUS_BLOWNUP""",
    "transforms": """
        TransformState TransformError SymmetryParams
        integrate_transform_odes constraint_residuals closed_form_b
        apply_pct apply_symmetry signature_quadratic""",
    "radial": """
        RadialProfile RadialTrajectory RadialRunResult ConeField
        GroundState ConcentrationReport ConcentrationScan BC_DIRICHLET
        BC_REGULARITY
        make_radial_profile radial_mass radial_energy theta_moment
        radial_weights radial_laplacian_dense solve_radial lift_to_cone
        cone_trace_jump shoot_ground_state concentration_scan
        save_radial_csv load_radial_csv""",
    "families": """
        PlaneWaveSpec StandingWaveSpec SemiclassicalSpec
        lift_profile standing_wave_lift wave_field bound_state_defect
        refine_bound_state semiclassical_field profile_hypothesis_warnings""",
    "coupled": """
        DecomposedState CoupledSeries StabilityReport TwoWaveSeries
        lift_structured make_decomposed step_decomposed step_perturbation
        run_decomposed stability_run two_wave_run""",
    "artifacts": """
        RunManifest SnapshotError
        write_snapshot read_snapshot snapshot_nbytes
        save_series_csv load_series_csv file_digest write_json""",
    "runner": """
        ExperimentConfig ConfigError KINDS parse_config run_experiment""",
}
# {exported name: the submodule that defines it}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
