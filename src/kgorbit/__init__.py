"""kgorbit: pseudospectral simulator and stability laboratory for the
nonlinear Klein-Gordon equation u_tt - Lap(u) - m^2 u + u^(2p+1) = 0 on
flat tori of unit volume.

The package realises the space-stationary planar loop family, its
homoclinic envelope, and long-time stability experiments around it:
first-return maps, chained-loop confinement, period scaling and Floquet
analysis of the driven modes.
"""

from .errors import (AssumptionViolated, DimensionMismatch, EmptyModeSet,
                     InsufficientSamples, KgError, NoCrossing, NonFiniteState,
                     NoReturn, OutOfRange, ParseError, ProjectionUndefined,
                     ValidationError)
from .spectra import (Mode, ModelParams, SpectrumTable, build_spectrum,
                      project_power, to_grid, to_modes)
from .hamiltonian import (EnergyBreakdown, State, dist_x, energy_breakdown,
                          f_prime, force, hamiltonian, phi_diagnostic,
                          potential_f, q_vector, rhs, xnorm)
from .integrators import (SectionSpec, StepperConfig, Trajectory, evolve,
                          evolve_ensemble, refine_crossing, rk4_step, split2_step)
from .stationary import (DeltaBand, Loop, Monodromy, PeriodicOrbit, PlanarState,
                         default_band, delta_band, dist_to_orbit, floquet,
                         homoclinic, invert_potential, period,
                         project_to_orbit, sample_orbit, turning_point)
from .experiments import (FirstReturnResult, IBoundCheck, LoopRecord,
                          PerturbationSpec, StabilityReport, bound_check_I,
                          period_scaling_sweep, perturb_near_orbit,
                          phi_envelope_fit, run_first_return, run_first_returns,
                          run_many_loops)
from .cli import RunConfig, parse_config, run, serialize_config

__version__ = "0.1.0"
