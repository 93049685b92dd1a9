"""Temporal betweenness centrality: exact computation and sampling estimators.

Public surface: graph loading (:mod:`tempbc.graph`), optimal-path counting
(:mod:`tempbc.tbfs`) and its brute-force oracle (:mod:`tempbc.bruteforce`),
exact betweenness (:mod:`tempbc.exact`), fixed-sample and progressive
estimators (:mod:`tempbc.samplers`, :mod:`tempbc.progressive`), sample-size
bounds (:mod:`tempbc.bounds`), hop-distance summaries
(:mod:`tempbc.distances`) and score comparison (:mod:`tempbc.evaluation`).

The namespace is lazy (PEP 562): ``import tempbc`` imports no submodule. A
public name, or a submodule such as ``tempbc.tbfs``, imports its home
submodule on first access, so a command imports only the modules it runs.
The package computes in pure Python: only ``ScoreVector.values`` needs numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# home submodule -> the public names it defines
_EXPORTS = {
    "bounds": ("hoeffding_size", "vc_size"),
    "bruteforce": ("PathBudgetExceeded", "enumerate_paths_bruteforce"),
    "distances": ("DistanceSummary", "estimate_distances", "recommended_sample_size"),
    "evaluation": ("EvalReport", "compare", "weighted_kendall"),
    "exact": ("GuardrailError", "exact_tbc", "exact_tbc_fractions"),
    "graph": (
        "ParseError", "TemporalGraph", "load_edge_list", "read_edge_list", "summarize",
        "write_edge_list",
    ),
    "progressive": (
        "RademacherState", "Schedule", "StopReason", "StopReport", "initial_sample_size",
        "progressive_estimate", "prtb_estimate", "rademacher_bound", "stopping_xi",
        "update_values",
    ),
    "samplers": (
        "Algorithm", "SampledPath", "ScoreVector", "ob_estimate", "rtb_estimate",
        "sample_optimal_path", "trk_estimate",
    ),
    "tbfs": ("AppearanceRecord", "PathOptimality", "TbfsResult", "full_tbfs", "truncated_tbfs"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "parallel", "rng"})

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
