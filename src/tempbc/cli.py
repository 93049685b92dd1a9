"""Command-line interface: load a temporal graph, run an algorithm, report.

Reports are JSON (schema_version 1) written to stdout or ``--out``; score
vectors go to a separate CSV (``node_id,score`` with 17 significant digits)
named by ``--scores``, or inline in the report when no path is given.

Exit codes: 0 success, 2 validation error, 3 work guardrail, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bounds import hoeffding_size, vc_size
from .distances import estimate_distances, recommended_sample_size
from .evaluation import compare
from .exact import GuardrailError, ScoreVector, exact_tbc, work_estimate
from .graph import ParseError, TemporalGraph, read_edge_list, summarize
from .progressive import StopReport, progressive_estimate, prtb_estimate
from .samplers import Algorithm, ob_estimate, rtb_estimate, trk_estimate
from .tbfs import PathOptimality
from .parallel import default_threads

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GUARDRAIL = 3
EXIT_IO = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempbc",
        description="Exact and sampling-based temporal betweenness centrality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, seeded: bool = True) -> None:
        p.add_argument("graph", help="edge-list file with 'u v t' rows")
        p.add_argument("--opt", choices=[o.value for o in PathOptimality], default="sh")
        p.add_argument("--undirected", action="store_true", help="treat input as undirected")
        p.add_argument("--dedupe", action="store_true", help="drop duplicate input rows")
        p.add_argument(
            "--threads", type=int, default=default_threads(),
            help="most worker processes to use; never more than the CPUs this process may run on",
        )
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--scores", help="write the score CSV here")
        if seeded:
            p.add_argument("--seed", type=int, default=0)

    p_exact = sub.add_parser("exact", help="exact betweenness over all sources")
    add_common(p_exact, seeded=False)
    p_exact.add_argument("--force", action="store_true", help="ignore the work guardrail")
    p_exact.add_argument(
        "--work-limit", type=int, default=None, help="override the guardrail work estimate limit"
    )

    p_fixed = sub.add_parser("fixed", help="fixed-sample-size estimator")
    add_common(p_fixed)
    p_fixed.add_argument("--algo", choices=[a.value for a in Algorithm], required=True)
    p_fixed.add_argument("--samples", type=int, help="explicit sample size r")
    p_fixed.add_argument(
        "--bound", choices=["hoeffding", "vc"], help="derive r from a sample-size bound"
    )
    p_fixed.add_argument("--epsilon", type=float, default=0.1)
    p_fixed.add_argument("--delta", type=float, default=0.1)
    p_fixed.add_argument("--vd", type=int, help="vertex diameter for --bound vc (estimated if omitted)")

    p_prog = sub.add_parser("progressive", help="progressive sampling with a stopping rule")
    add_common(p_prog)
    p_prog.add_argument("--algo", choices=["prtb", "ob", "trk"], required=True)
    p_prog.add_argument("--epsilon", type=float, default=0.1)
    p_prog.add_argument("--delta", type=float, default=0.1)
    p_prog.add_argument("--alpha", type=float, default=1.5)
    p_prog.add_argument("--c", type=float, default=2.0, help="stop threshold constant for prtb")
    p_prog.add_argument("--max-samples", type=int, help="hard cap on the sample count")

    p_diam = sub.add_parser("diameter", help="distance and connectivity summary")
    add_common(p_diam)
    p_diam.add_argument("--samples", type=int, help="number of sampled sources")
    p_diam.add_argument("--epsilon", type=float, help="derive the sample count from ln(n)/eps^2")
    p_diam.add_argument("--tau", type=float, default=0.9)
    p_diam.add_argument("--no-replace", action="store_true", help="sample sources without replacement")

    p_cmp = sub.add_parser("compare", help="compare two score CSVs")
    p_cmp.add_argument("exact_scores")
    p_cmp.add_argument("approx_scores")
    p_cmp.add_argument("--k", type=int, default=50)
    p_cmp.add_argument("--out")

    return parser


def _load_graph(args) -> TemporalGraph:
    return read_edge_list(args.graph, directed=not args.undirected, dedupe=args.dedupe)


def _graph_section(args, graph: TemporalGraph) -> dict:
    n, m, lifetime = summarize(graph)
    return {
        "path": args.graph,
        "n": n,
        "edges": m,
        "lifetime": lifetime,
        "directed": graph.directed,
        "self_loops_dropped": graph.dropped_self_loops,
    }


def _stop_section(report: StopReport) -> dict:
    return {
        "final_sample_size": report.final_sample_size,
        "iterations": report.iterations,
        "xi": report.xi,
        "epsilon": report.epsilon,
        "stopped_by": report.stopped_by.value,
    }


def _emit(args, report: dict, scores: ScoreVector | None, graph: TemporalGraph | None) -> None:
    if scores is not None:
        if getattr(args, "scores", None):
            node_ids = graph.node_ids if graph is not None else None
            scores.write_csv(args.scores, node_ids)
            report["scores_path"] = args.scores
        else:
            ids = graph.node_ids if graph is not None else range(scores.n)
            report["scores"] = [
                {"node_id": int(nid), "score": float(val)}
                for nid, val in zip(ids, scores.values)
            ]
    text = json.dumps(report, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _base_report(args, command: str) -> dict:
    return {
        "schema_version": 1,
        "command": list(getattr(args, "_argv", [command])),
        "algorithm": getattr(args, "algo", command),
    }


def _cmd_exact(args) -> int:
    graph = _load_graph(args)
    started = time.perf_counter()
    limits = {} if args.work_limit is None else {"work_limit": args.work_limit}
    scores = exact_tbc(
        graph, PathOptimality.parse(args.opt), threads=args.threads, force=args.force, **limits
    )
    report = _base_report(args, "exact")
    report.update(
        graph=_graph_section(args, graph),
        optimality=args.opt,
        parameters={"threads": args.threads, "force": args.force, "work_estimate": work_estimate(graph)},
        wall_seconds=time.perf_counter() - started,
    )
    _emit(args, report, scores, graph)
    return EXIT_OK


def _fixed_sample_size(args, graph: TemporalGraph) -> tuple[int, dict]:
    params: dict = {"epsilon": args.epsilon, "delta": args.delta}
    if args.samples is not None and args.bound:
        raise ValueError("give either --samples or --bound, not both")
    if args.vd is not None and args.bound != "vc":
        raise ValueError("--vd applies only with --bound vc")
    if args.samples is not None:
        if args.samples < 1:
            raise ValueError("--samples must be >= 1")
        params["samples"] = args.samples
        return args.samples, params
    if args.bound and graph.n < 2:
        raise ValueError("sampling estimators need at least 2 nodes")
    if args.bound == "hoeffding":
        r = hoeffding_size(args.epsilon, args.delta, graph.n)
    elif args.bound == "vc":
        vd = args.vd
        if vd is None:
            # vertex diameter = hop diameter + 1, estimated by source sampling;
            # a graph without paths has no internal nodes, which the bound's
            # smallest case (vd = 2) already covers
            s = min(graph.n, recommended_sample_size(graph.n, 0.25))
            hops = estimate_distances(graph, s, 1.0, args.seed, threads=args.threads).diameter
            vd = max(hops + 1, 2)
        params["vd"] = vd
        r = vc_size(args.epsilon, args.delta, vd)
    else:
        raise ValueError("one of --samples or --bound is required")
    params["bound"] = args.bound
    params["samples"] = r
    return r, params


def _cmd_fixed(args) -> int:
    graph = _load_graph(args)
    opt = PathOptimality.parse(args.opt)
    r, params = _fixed_sample_size(args, graph)
    params["seed"] = args.seed
    params["threads"] = args.threads
    runners = {
        Algorithm.RTB: rtb_estimate,
        Algorithm.OB: ob_estimate,
        Algorithm.TRK: trk_estimate,
    }
    started = time.perf_counter()
    scores = runners[Algorithm(args.algo)](graph, opt, r, args.seed, threads=args.threads)
    report = _base_report(args, "fixed")
    report.update(
        graph=_graph_section(args, graph),
        optimality=args.opt,
        parameters=params,
        wall_seconds=time.perf_counter() - started,
    )
    _emit(args, report, scores, graph)
    return EXIT_OK


def _cmd_progressive(args) -> int:
    graph = _load_graph(args)
    opt = PathOptimality.parse(args.opt)
    params: dict = {"seed": args.seed}
    started = time.perf_counter()
    if args.algo == "prtb":
        # prtb checks its stop rule after every sample, so it runs serially
        params["c"] = args.c
        if args.max_samples is not None:
            params["max_samples"] = args.max_samples
        scores, stop = prtb_estimate(graph, opt, args.c, args.seed, max_samples=args.max_samples)
    else:
        params.update(threads=args.threads, epsilon=args.epsilon, delta=args.delta, alpha=args.alpha)
        cap = args.max_samples
        if args.algo == "trk" and cap is None:
            cap = hoeffding_size(args.epsilon, args.delta, graph.n)
        if cap is not None:
            params["iteration_cap"] = cap
        scores, stop = progressive_estimate(
            graph, opt, args.epsilon, args.delta, args.alpha,
            Algorithm(args.algo), args.seed, iteration_cap=cap, threads=args.threads,
        )
    report = _base_report(args, "progressive")
    report.update(
        graph=_graph_section(args, graph),
        optimality=args.opt,
        parameters=params,
        wall_seconds=time.perf_counter() - started,
        stop=_stop_section(stop),
    )
    _emit(args, report, scores, graph)
    return EXIT_OK


def _cmd_diameter(args) -> int:
    graph = _load_graph(args)
    if args.samples is not None:
        s = args.samples
    elif args.epsilon is not None:
        s = recommended_sample_size(max(graph.n, 2), args.epsilon)
    else:
        raise ValueError("one of --samples or --epsilon is required")
    started = time.perf_counter()
    summary = estimate_distances(
        graph, s, args.tau, args.seed, replace=not args.no_replace, threads=args.threads
    )
    report = _base_report(args, "diameter")
    report.update(
        graph=_graph_section(args, graph),
        parameters={"samples": s, "tau": args.tau, "seed": args.seed, "threads": args.threads},
        wall_seconds=time.perf_counter() - started,
        summary={
            "diameter": summary.diameter,
            "effective_diameter": summary.effective_diameter,
            "tau": summary.tau,
            "connectivity_rate": summary.connectivity_rate,
            "avg_distance": summary.avg_distance,
            "sample_size": summary.sample_size,
            "has_paths": summary.has_paths,
            "reach_profile": [float(x) for x in summary.reach_profile],
        },
    )
    _emit(args, report, None, graph)
    return EXIT_OK


def _cmd_compare(args) -> int:
    exact_vec, exact_ids = ScoreVector.read_csv(args.exact_scores)
    approx_vec, approx_ids = ScoreVector.read_csv(args.approx_scores)
    if exact_ids != approx_ids:
        raise ValueError("score files cover different node sets")
    result = compare(exact_vec, approx_vec, args.k)
    report = {
        "schema_version": 1,
        "command": list(getattr(args, "_argv", ["compare"])),
        "algorithm": "compare",
        "parameters": {"k": args.k},
        "evaluation": {
            "sup_deviation": result.sup_deviation,
            "mse": result.mse,
            "weighted_kendall": result.weighted_kendall,
            "topk_intersection": result.topk_intersection,
            "k": result.k,
        },
    }
    _emit(args, report, None, None)
    return EXIT_OK


_COMMANDS = {
    "exact": _cmd_exact,
    "fixed": _cmd_fixed,
    "progressive": _cmd_progressive,
    "diameter": _cmd_diameter,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    effective = list(argv) if argv is not None else sys.argv[1:]
    args = parser.parse_args(effective)
    args._argv = effective
    try:
        if getattr(args, "threads", 1) < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        return _COMMANDS[args.command](args)
    except GuardrailError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARDRAIL
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
