"""Treatment-effect heterogeneity from fused trial and observational data.

The package estimates a parametric treatment-effect curve together with
a parametric confounding curve for the observational source by solving
weighted estimating equations over the combined sample, with sandwich
standard errors, an averaged-effect summary, a precision comparison
against the trial-only fit, and a score-type specification test.  A
Monte Carlo harness reproduces the built-in synthetic study.
"""

from types import ModuleType as _ModuleType

from ._version import __version__
from .errors import NumericalError, ValidationError
from .model import (
    BasisSpec,
    BasisTerm,
    Dataset,
    StructuralModel,
    constant_term,
    linear_term,
    product_term,
    spline_term,
    square_term,
)
from .nuisance import (
    AdditiveRegressor,
    NuisanceValues,
    Propensity,
    VarianceFunction,
    build_spline_basis,
    fit_additive,
    fit_propensity,
    fit_variance_function,
)
from .estimators import (
    FitOptions,
    PipelineResult,
    ScoreWorkspace,
    SolveReport,
    build_workspace,
    meta_estimate,
    run_pipeline,
    solve_integrative,
    solve_rct,
)
from .inference import (
    AteEstimate,
    GainReport,
    GofResult,
    PsiEstimate,
    TauCurve,
    ate_estimate,
    gof_test,
    precision_gain,
    sandwich_covariance,
    tau_curve,
)
from .simulation import (
    McSummary,
    SimConfig,
    default_lambda_basis,
    default_probes,
    default_tau_basis,
    generate_replicate,
    probe_label,
    replicate_rng,
    run_monte_carlo,
    run_replicate,
    summarize,
    true_ate,
    true_tau,
    true_tau_coefficients,
)
from .io import (
    AnalysisConfig,
    ResultDocument,
    load_csv,
    parse_terms,
    run_fit,
    run_simulate,
)

# Importing the submodules binds their names here too; star imports leave
# them out so that ``io`` and the like never shadow standard modules.
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)] + ["__version__"]
