"""Zone-level crash frequency modeling toolkit.

Road-network betweenness centralization and pattern classification, spatial
proximity matrices, Bayesian Poisson-lognormal regression with an intrinsic
CAR spatial effect fitted by MCMC, and model comparison via DIC, R-squared,
and the spatial-share statistic alpha.
"""

__version__ = "0.1.0"

from .centrality import (
    CentralityResult,
    Pattern,
    RoadGraph,
    adjacency_matrix,
    analyze,
    classify_pattern,
    graph_centralization,
    node_betweenness,
)
from .dataset import DesignMatrix, LandUse, ZoneRecord, build_design, load_dataset, summarize
from .errors import (
    ConnectivityWarning,
    ConvergenceError,
    DataWarning,
    DomainError,
    McmcDivergenceError,
    TazcarError,
    ValidationError,
)
from .evaluate import (
    alpha_spatial_share,
    compare_dic,
    deviance,
    dic,
    percent_change,
    r_squared,
)
from .mcmc import McmcConfig, PosteriorReport, fit, gelman_rubin, irls_poisson_fit
from .model import ModelSpec, icar_log_density_kernel, poisson_loglik
from .synth import generate_lattice, generate_pattern_network, simulate_dataset
from .weights import ProximityMatrix, ZoneTopology, build_weights
