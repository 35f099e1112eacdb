"""Rate trade-offs and a desk-scale coding simulation for strong coordination.

Two processors must emit correlated sequences with the help of a
coordinator that shares independent randomness with each of them.  This
package computes the communication/shared-randomness rate quantities for
that setup on exact finite distributions, evaluates the achievable rate
region, carries the closed forms for the doubly symmetric binary source,
and runs a seeded Monte Carlo implementation of the coding scheme.
"""

from .pmf import (
    AuxChannel,
    FullJoint,
    JointPmf,
    Pmf,
    PmfError,
    compose,
    degenerate_channel,
    dsbs_joint,
    load_aux_channel,
    load_joint_pmf,
    marginal,
    save_aux_channel,
    save_joint_pmf,
    tv_distance,
)
from .measures import (
    binary_entropy,
    conditional_mutual_information,
    entropy,
    inverse_binary_entropy,
    mutual_information,
    source_info,
)
from .wyner import SolverInfeasibleError, SolverOptions, WynerResult, wyner_ci
from .ulsr import UlsrForm, UlsrResult, ulsr_objective, ulsr_rate
from .dsbs import CurvePoint, curve_csv_lines, curve_rows, dsbs_wyner_channel, emit_curve, f_of_t, interpolated_channel, t_star, write_curve_csv
from .region import RateTriple, RegionBounds, achievable_bounds, check_markov_quadruple, in_achievable_region, xy_equal_region
from .simulate import Codebooks, SimConfig, SimRates, SimReport, derive_components, run_trials

__version__ = "0.1.0"
