"""Workload definitions: the generated graph, the CLI commands run on it, and
the in-process public-API equivalent of each command that gives its
reference result.

tempbc is imported inside functions throughout the benchmark: ``run.py``
first puts the checkout's ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from fractions import Fraction

from generators import bursty_rows, uniform_rows

# every command gets --threads 2: the size of the box the benchmark was sized on
THREADS = 2
SCORE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Command:
    """One ``python -m tempbc`` invocation, minus the graph path and threads."""

    kind: str  # exact | fixed | progressive
    opt: str
    algo: str | None = None
    samples: int | None = None
    bound: str | None = None
    epsilon: float = 0.1
    delta: float = 0.1
    max_samples: int | None = None

    @property
    def name(self) -> str:
        return "-".join(str(p) for p in (self.kind, self.algo, self.opt, self.bound) if p)

    def argv(self, graph_path: str, seed: int, threads: int) -> list[str]:
        args = [self.kind, graph_path, "--opt", self.opt, "--threads", str(threads)]
        if self.kind == "exact":
            return args
        args += ["--seed", str(seed), "--algo", self.algo]
        if self.samples is not None:
            args += ["--samples", str(self.samples)]
        if self.bound is not None:
            args += ["--bound", self.bound]
        if self.samples is None:
            args += ["--epsilon", repr(self.epsilon), "--delta", repr(self.delta)]
        if self.max_samples is not None:
            args += ["--max-samples", str(self.max_samples)]
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str  # bursty | uniform
    n: int
    m: int
    max_time: int
    # the first command is the one whose fan-out the parallel metrics describe
    commands: tuple[Command, ...]
    # in-process calls that the traced run adds so that every layer is probed
    probes: tuple[Command, ...]

    def rows(self, seed: int) -> list[tuple[int, int, int]]:
        make = bursty_rows if self.generator == "bursty" else uniform_rows
        return make(seed, self.n, self.m, self.max_time)


EXACT_SH = Command("exact", "sh")
EXACT_PFM = Command("exact", "pfm")
FIXED_OB_VC = Command("fixed", "sh", algo="ob", bound="vc")
FIXED_TRK = Command("fixed", "sfm", algo="trk", samples=512)
PROGRESSIVE_OB = Command("progressive", "sh", algo="ob", epsilon=0.15)
# the progressive probe on workloads that do not run progressive: capped
PROGRESSIVE_PROBE = Command("progressive", "sh", algo="ob", epsilon=0.25, max_samples=200)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-bursty", "bursty", 250, 2500, 200,
                 (EXACT_SH, EXACT_PFM), (FIXED_OB_VC, PROGRESSIVE_PROBE)),
        Workload("pairs-bursty", "bursty", 500, 5000, 300,
                 (FIXED_OB_VC, FIXED_TRK), (EXACT_SH, PROGRESSIVE_PROBE)),
        Workload("progressive-uniform", "uniform", 2000, 20000, 500,
                 (PROGRESSIVE_OB,), (EXACT_SH, FIXED_OB_VC)),
    )
}

# exact probes on a workload without exact commands run on the graph of the
# first rows of the workload's file, so that they stay cheap
EXACT_PROBE_ROWS = 1000


@dataclass
class Outcome:
    """What one command produced: the fields a CLI report must agree with."""

    values: list[float]
    params: dict
    stop: dict | None
    items: int
    fractions: dict | None = None


def run_inprocess(cmd: Command, graph, seed: int, threads: int, span=None, *, rational=False):
    """Run ``cmd`` through the public API, as the CLI composes it.

    With ``rational`` set, exact commands go through ``exact_tbc_fractions``
    and keep the rationals, so the reference is checked against them.
    ``span(name)`` is an optional context-manager factory wrapped around
    each public call.
    """
    from tempbc import (
        estimate_distances,
        exact_tbc,
        exact_tbc_fractions,
        progressive_estimate,
        recommended_sample_size,
        vc_size,
    )
    from tempbc.exact import work_estimate
    from tempbc.samplers import Algorithm, ob_estimate, trk_estimate
    from tempbc.tbfs import PathOptimality

    span = span or (lambda name: contextlib.nullcontext())
    opt = PathOptimality.parse(cmd.opt)
    if cmd.kind == "exact":
        params = {"threads": threads, "force": False, "work_estimate": work_estimate(graph)}
        if rational:
            with span("exact.exact_tbc_fractions"):
                fractions = exact_tbc_fractions(graph, opt, threads=threads)
            values = [float(fractions[v]) for v in range(graph.n)]
            return Outcome(values, params, None, graph.n, fractions)
        with span("exact.exact_tbc"):
            scores = exact_tbc(graph, opt, threads=threads, force=True)
        return Outcome(scores.values.tolist(), params, None, graph.n)

    params = {"seed": seed, "threads": threads, "epsilon": cmd.epsilon, "delta": cmd.delta}
    if cmd.kind == "fixed":
        if cmd.bound == "vc":
            s = min(graph.n, recommended_sample_size(max(graph.n, 2), 0.25))
            with span("distances.estimate_distances"):
                vd = estimate_distances(graph, s, 1.0, seed, threads=threads).diameter + 1
            r = vc_size(cmd.epsilon, cmd.delta, max(vd, 2))
            params.update(bound="vc", vd=vd)
        else:
            r = cmd.samples
        params["samples"] = r
        estimator = ob_estimate if cmd.algo == "ob" else trk_estimate
        with span(f"samplers.{cmd.algo}_estimate"):
            scores = estimator(graph, opt, r, seed, threads=threads)
        return Outcome(scores.values.tolist(), params, None, r)

    params["alpha"] = 1.5
    if cmd.max_samples is not None:
        params["iteration_cap"] = cmd.max_samples
    with span("progressive.progressive_estimate"):
        scores, stop = progressive_estimate(
            graph, opt, cmd.epsilon, cmd.delta, 1.5, Algorithm(cmd.algo), seed,
            iteration_cap=cmd.max_samples,
        )
    stop_fields = {
        "final_sample_size": stop.final_sample_size,
        "iterations": stop.iterations,
        "stopped_by": stop.stopped_by.value,
    }
    return Outcome(scores.values.tolist(), params, stop_fields, stop.final_sample_size)


def check_report(report: dict, expected: Outcome) -> list[str]:
    """Reasons the report disagrees with the reference; empty when it agrees."""
    problems = []
    if report.get("schema_version") != 1:
        problems.append("schema_version is not 1")
    params = report.get("parameters")
    if not isinstance(params, dict):
        problems.append("no parameters section")
    else:
        for key, want in expected.params.items():
            if params.get(key) != want:
                problems.append(f"parameters.{key} = {params.get(key)!r}, expected {want!r}")
    if expected.stop is not None:
        stop = report.get("stop")
        if not isinstance(stop, dict) or not {"xi", "epsilon"} <= stop.keys():
            problems.append("stop section missing or incomplete")
        else:
            for key, want in expected.stop.items():
                if stop.get(key) != want:
                    problems.append(f"stop.{key} = {stop.get(key)!r}, expected {want!r}")
    scores = report.get("scores")
    if not isinstance(scores, list) or len(scores) != len(expected.values):
        problems.append("score vector missing or of the wrong length")
    else:
        problems += compare_scores([row.get("score") for row in scores], expected.values)
    return problems


def compare_outcomes(got: Outcome, expected: Outcome, *, same_params: bool = True) -> list[str]:
    """Reasons an in-process outcome disagrees with the reference."""
    problems = compare_scores(got.values, expected.values)
    if same_params and got.params != expected.params:
        problems.append(f"parameters {got.params!r}, expected {expected.params!r}")
    if got.stop != expected.stop:
        problems.append(f"stop {got.stop!r}, expected {expected.stop!r}")
    return problems


def compare_scores(values: list, reference: list[float]) -> list[str]:
    worst = max(
        (abs(v - r) if isinstance(v, (int, float)) else float("inf") for v, r in zip(values, reference)),
        default=0.0,
    )
    return [] if worst <= SCORE_TOLERANCE else [f"score differs from reference by {worst:.3g}"]


def max_abs_err_vs_rational(values: list[float], fractions: dict) -> float:
    """Largest |float score - exact rational score|, evaluated exactly."""
    return float(max((abs(Fraction(v) - fractions[i]) for i, v in enumerate(values)), default=0))
