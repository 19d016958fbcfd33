"""Exact-arithmetic geometric substrate: predicates, hyperplanes,
facet/ridge value types, and seeded workload generators."""

from .degenerate import CORPUS, DegenerateFamily, corpus_case, corpus_names
from .hyperplane import Hyperplane
from .kernels import (
    KERNEL_STATS,
    KernelStats,
    filter_scale,
    orient_batch,
)
from .linalg import det_exact, det_with_error_bound, sign_exact
from .noisy import ADAPTIVE, NoisyKernel, parse_votes
from .points import (
    anisotropic,
    collinear_cluster,
    coplanar_3d,
    figure1_points,
    gaussian,
    integer_grid,
    moment_curve,
    on_circle,
    on_paraboloid,
    on_sphere,
    rng_for,
    two_clusters,
    uniform_ball,
    uniform_cube,
)
from .perturb import (
    MergedFacet,
    merge_coplanar_facets,
    orient_sos,
    sos_active,
    sos_mode,
)
from .predicates import STATS, in_circle, orient, orient_exact, orient_exact_combo
from .simplex import Facet, Ridge, facet_ridges

__all__ = [
    "CORPUS",
    "DegenerateFamily",
    "corpus_case",
    "corpus_names",
    "Hyperplane",
    "KERNEL_STATS",
    "KernelStats",
    "filter_scale",
    "orient_batch",
    "MergedFacet",
    "merge_coplanar_facets",
    "orient_sos",
    "sos_active",
    "sos_mode",
    "det_exact",
    "det_with_error_bound",
    "sign_exact",
    "ADAPTIVE",
    "NoisyKernel",
    "parse_votes",
    "STATS",
    "in_circle",
    "orient",
    "orient_exact",
    "orient_exact_combo",
    "Facet",
    "Ridge",
    "facet_ridges",
    "rng_for",
    "uniform_ball",
    "uniform_cube",
    "on_sphere",
    "on_circle",
    "gaussian",
    "on_paraboloid",
    "integer_grid",
    "coplanar_3d",
    "collinear_cluster",
    "anisotropic",
    "figure1_points",
    "moment_curve",
    "two_clusters",
]
