"""Temporal betweenness centrality: exact computation and sampling estimators.

Public surface:

* graph loading and relabeling (:mod:`tempbc.graph`),
* optimal-path counting engines (:mod:`tempbc.tbfs`) and the definitional
  brute-force oracle (:mod:`tempbc.bruteforce`),
* exact betweenness (:mod:`tempbc.exact`),
* fixed-sample estimators (:mod:`tempbc.samplers`) and their progressive
  versions (:mod:`tempbc.progressive`),
* a-priori sample-size bounds (:mod:`tempbc.bounds`),
* hop-distance and connectivity summaries (:mod:`tempbc.distances`),
* score comparison metrics (:mod:`tempbc.evaluation`).
"""

from .bounds import hoeffding_size, vc_size
from .bruteforce import PathBudgetExceeded, enumerate_paths_bruteforce
from .distances import DistanceSummary, estimate_distances, recommended_sample_size
from .evaluation import EvalReport, compare, weighted_kendall
from .exact import GuardrailError, ScoreVector, exact_tbc, exact_tbc_fractions
from .graph import (
    ParseError,
    TemporalGraph,
    load_edge_list,
    read_edge_list,
    summarize,
    write_edge_list,
)
from .progressive import (
    RademacherState,
    Schedule,
    StopReason,
    StopReport,
    initial_sample_size,
    progressive_estimate,
    prtb_estimate,
    rademacher_bound,
    stopping_xi,
    update_values,
)
from .samplers import (
    Algorithm,
    SampledPath,
    ob_estimate,
    rtb_estimate,
    sample_optimal_path,
    trk_estimate,
)
from .tbfs import AppearanceRecord, PathOptimality, TbfsResult, full_tbfs, truncated_tbfs

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "AppearanceRecord",
    "DistanceSummary",
    "EvalReport",
    "GuardrailError",
    "ParseError",
    "PathBudgetExceeded",
    "PathOptimality",
    "RademacherState",
    "SampledPath",
    "Schedule",
    "ScoreVector",
    "StopReason",
    "StopReport",
    "TbfsResult",
    "TemporalGraph",
    "compare",
    "enumerate_paths_bruteforce",
    "estimate_distances",
    "exact_tbc",
    "exact_tbc_fractions",
    "full_tbfs",
    "hoeffding_size",
    "initial_sample_size",
    "load_edge_list",
    "ob_estimate",
    "progressive_estimate",
    "prtb_estimate",
    "rademacher_bound",
    "read_edge_list",
    "recommended_sample_size",
    "rtb_estimate",
    "sample_optimal_path",
    "stopping_xi",
    "summarize",
    "trk_estimate",
    "truncated_tbfs",
    "update_values",
    "vc_size",
    "weighted_kendall",
    "write_edge_list",
]
