"""Command-line interface: load a temporal graph, run an algorithm, report.

Every graph command runs one pipeline (``_report``): check the flags that
need no graph, load the graph, derive the parameters and the one library
call, time that call alone (``wall_seconds``), then emit the JSON report
(schema_version 1) to stdout or ``--out``. Scores go to the ``--scores``
CSV (``node_id,score``, 17 significant digits), or inline in the report.
Through this module every command, ``compare`` too, imports ``bounds``,
``exact``, ``graph``, ``parallel``, ``rng``, ``samplers`` and ``tbfs``.
``progressive``, ``distances`` and ``evaluation`` load only with their
command (``distances`` also with ``fixed --bound vc`` and no ``--vd``). The
workers a command forks inside the timed call inherit its modules and the
graph (see :mod:`tempbc.parallel`). A report's ``stop``, ``summary`` and
``evaluation`` sections are the ``_asdict()`` of the library's
``NamedTuple`` records. Under :func:`tempbc.__main__.run`, the start-up
heap is frozen just before the timed call. ``compare`` pairs the two score
files' rows by node id.

Exit codes: 0 success, 2 validation error, 3 work guardrail, 4 I/O error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from functools import partial

from .bounds import check_bound_inputs, hoeffding_size, vc_size
from .exact import GuardrailError, exact_tbc, work_estimate
from .graph import ParseError, TemporalGraph, read_edge_list, summarize
from .samplers import Algorithm, ScoreVector, ob_estimate, rtb_estimate, sampled_n, trk_estimate
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

    def add_command(name: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("graph", help="edge-list file with 'u v t' rows")
        if name != "diameter":  # hop distances follow shortest temporal paths only; no scores
            p.add_argument("--opt", choices=[o.value for o in PathOptimality], default="sh")
            p.add_argument("--scores", help="write the score CSV here")
        p.add_argument("--undirected", action="store_true", help="treat input as undirected")
        p.add_argument("--dedupe", action="store_true", help="drop duplicate input rows")
        p.add_argument(
            "--threads", type=int,
            help="most worker processes to use; default and ceiling: the CPUs this process may run on",
        )
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        if name != "exact":
            p.add_argument("--seed", type=int, default=0)
        return p

    p_exact = add_command("exact", "exact betweenness over all sources")
    p_exact.add_argument("--force", action="store_true", help="ignore the work guardrail")

    p_fixed = add_command("fixed", "fixed-sample-size estimator")
    p_fixed.add_argument("--algo", choices=[a.value for a in Algorithm], required=True)
    p_fixed.add_argument("--samples", type=int, help="explicit sample size r")
    p_fixed.add_argument(
        "--bound", choices=["hoeffding", "vc"], help="derive r from a sample-size bound"
    )
    p_fixed.add_argument("--epsilon", type=float, default=0.1)
    p_fixed.add_argument("--delta", type=float, default=0.1)
    p_fixed.add_argument("--vd", type=int, help="vertex diameter for --bound vc (estimated if omitted)")

    p_prog = add_command("progressive", "progressive sampling with a stopping rule")
    p_prog.add_argument("--algo", choices=["prtb", "ob", "trk"], required=True)
    # each algorithm's flags get their defaults in _check_flags, which
    # refuses the flags that the chosen algorithm does not use (prtb runs
    # serially, so --threads among them)
    p_prog.add_argument("--epsilon", type=float, help="ob/trk only (default 0.1)")
    p_prog.add_argument("--delta", type=float, help="ob/trk only (default 0.1)")
    p_prog.add_argument("--alpha", type=float, help="ob/trk only (default 1.5)")
    p_prog.add_argument("--c", type=float, help="stop threshold constant, prtb only (default 2.0)")
    p_prog.add_argument("--max-samples", type=int, help="hard cap on the sample count")

    p_diam = add_command("diameter", "distance and connectivity summary")
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


def _check_flags(args) -> None:
    """The flag and value checks that need no graph. The pipeline runs them
    before it loads the graph, so a usage error exits 2 at once, whatever
    the file; a value check gives the library's message. Fills in the
    defaults of the flags that the command uses."""
    if args.command == "compare":
        if args.k < 1:
            raise ValueError("k must be >= 1")
        return
    if args.threads is not None and args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    if args.command == "progressive":
        if args.algo == "prtb":
            defaults = {"c": 2.0}
        else:
            defaults = {"epsilon": 0.1, "delta": 0.1, "alpha": 1.5, "threads": default_threads()}
        for name in ("epsilon", "delta", "alpha", "c", "threads"):
            if getattr(args, name) is None:
                setattr(args, name, defaults.get(name))
            elif name not in defaults:
                raise ValueError(f"--{name} applies only with --algo {'prtb' if name == 'c' else 'ob or trk'}")
        if args.algo == "prtb" and args.c < 2:
            raise ValueError("threshold constant c must be >= 2")
        if args.algo != "prtb":
            check_bound_inputs(args.epsilon, args.delta)
            if args.alpha <= 1.0:
                raise ValueError("schedule constant alpha must be > 1")
        if args.max_samples is not None and args.max_samples < 1:
            cap = "sample" if args.algo == "prtb" else "iteration"
            raise ValueError(f"{cap} cap must be >= 1, got {args.max_samples}")
        return
    if args.threads is None:
        args.threads = default_threads()
    if args.command == "fixed":
        if args.samples is not None and args.bound:
            raise ValueError("give either --samples or --bound, not both")
        if args.vd is not None and args.bound != "vc":
            raise ValueError("--vd applies only with --bound vc")
        if args.samples is not None and args.samples < 1:
            raise ValueError("--samples must be >= 1")
        if args.samples is None and args.bound is None:
            raise ValueError("one of --samples or --bound is required")
        if args.bound is not None:  # --samples leaves epsilon and delta unused
            check_bound_inputs(args.epsilon, args.delta, vd=args.vd)
    elif args.command == "diameter":
        if args.samples is not None and args.epsilon is not None:
            raise ValueError("give either --samples or --epsilon, not both")
        if args.samples is None and args.epsilon is None:
            raise ValueError("one of --samples or --epsilon is required")
        if args.samples is not None and args.samples < 1:
            raise ValueError("sample size must be >= 1")
        if not 0.0 < args.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        if args.samples is None and args.epsilon <= 0:
            raise ValueError("epsilon must be positive")


# Each graph command derives its report parameters from the loaded graph and
# returns them with the one library call that the pipeline times.


def _exact(args, graph: TemporalGraph):
    params = {"threads": args.threads, "force": args.force, "work_estimate": work_estimate(graph)}
    opt = PathOptimality.parse(args.opt)
    return params, partial(exact_tbc, graph, opt, threads=args.threads, force=args.force)


def _fixed_sample_size(args, graph: TemporalGraph) -> dict:
    params: dict = {"epsilon": args.epsilon, "delta": args.delta}
    if args.samples is not None:
        params["samples"] = args.samples
        return params
    n = sampled_n(graph)
    if args.bound == "hoeffding":
        r = hoeffding_size(args.epsilon, args.delta, n)
    else:
        vd = args.vd
        if vd is None:
            from .distances import estimate_distances, recommended_sample_size

            # vertex diameter = hop diameter + 1, estimated by source sampling;
            # a graph without paths has no internal nodes, which the bound's
            # smallest case (vd = 2) already covers
            s = min(n, recommended_sample_size(n, 0.25))
            hops = estimate_distances(graph, s, 1.0, args.seed, threads=args.threads).diameter
            vd = max(hops + 1, 2)
        params["vd"] = vd
        r = vc_size(args.epsilon, args.delta, vd)
    params["bound"] = args.bound
    params["samples"] = r
    return params


_FIXED_ESTIMATORS = {Algorithm.RTB: rtb_estimate, Algorithm.OB: ob_estimate, Algorithm.TRK: trk_estimate}


def _fixed(args, graph: TemporalGraph):
    params = _fixed_sample_size(args, graph)
    params.update(seed=args.seed, threads=args.threads)
    estimator = _FIXED_ESTIMATORS[Algorithm(args.algo)]
    opt = PathOptimality.parse(args.opt)
    return params, partial(estimator, graph, opt, params["samples"], args.seed, threads=args.threads)


def _progressive(args, graph: TemporalGraph):
    from .progressive import progressive_estimate, prtb_estimate

    opt = PathOptimality.parse(args.opt)
    params: dict = {"seed": args.seed}
    if args.algo == "prtb":
        # prtb checks its stop rule after every sample, so it runs serially
        params["c"] = args.c
        if args.max_samples is not None:
            params["max_samples"] = args.max_samples
        return params, partial(prtb_estimate, graph, opt, args.c, args.seed, max_samples=args.max_samples)
    params.update(threads=args.threads, epsilon=args.epsilon, delta=args.delta, alpha=args.alpha)
    cap = args.max_samples
    if args.algo == "trk" and cap is None:
        cap = hoeffding_size(args.epsilon, args.delta, sampled_n(graph))
    if cap is not None:
        params["iteration_cap"] = cap
    return params, partial(
        progressive_estimate, graph, opt, args.epsilon, args.delta, args.alpha,
        Algorithm(args.algo), args.seed, iteration_cap=cap, threads=args.threads,
    )


def _diameter(args, graph: TemporalGraph):
    from .distances import estimate_distances, recommended_sample_size

    if args.samples is not None:
        s = args.samples
    else:
        s = recommended_sample_size(sampled_n(graph), args.epsilon)
    params = {"samples": s, "tau": args.tau, "seed": args.seed, "threads": args.threads}
    return params, partial(
        estimate_distances, graph, s, args.tau, args.seed,
        replace=not args.no_replace, threads=args.threads,
    )


_COMMANDS = {"exact": _exact, "fixed": _fixed, "progressive": _progressive, "diameter": _diameter}


def _evaluation(args) -> dict:
    from .evaluation import compare

    exact_vec, exact_ids = ScoreVector.read_csv(args.exact_scores)
    approx_vec, approx_ids = ScoreVector.read_csv(args.approx_scores)
    if exact_ids != approx_ids:  # the same ids in another row order are aligned by id
        if set(exact_ids) != set(approx_ids):
            raise ValueError("score files cover different node sets")
        by_id = dict(zip(approx_ids, approx_vec.scores))
        approx_vec.scores = [by_id[nid] for nid in exact_ids]
    return compare(exact_vec, approx_vec, args.k)._asdict()


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # a path that does not exist yet
        return os.path.realpath(a) == os.path.realpath(b)


def _check_outputs(args) -> None:
    """Refuse, before any work, an output path whose directory is missing or
    that is itself a directory, and one that names an input file or the
    other output."""
    scores = getattr(args, "scores", None)
    for path in (scores, args.out):
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(f"no directory to write {path} in")
        if path and os.path.isdir(path):
            raise IsADirectoryError(f"{path} is a directory, not a file to write")
    inputs = (args.exact_scores, args.approx_scores) if args.command == "compare" else (args.graph,)
    for flag, path in (("--scores", scores), ("--out", args.out)):
        if path and any(_same_file(path, name) for name in inputs):
            raise ValueError(f"{flag} {path} would overwrite an input file")
    if scores and args.out and _same_file(scores, args.out):
        raise ValueError(f"--scores and --out both name {scores}")


def _report(args, argv: list[str], freeze_heap: bool) -> dict:
    report = {"schema_version": 1, "command": argv, "algorithm": getattr(args, "algo", args.command)}
    _check_outputs(args)
    _check_flags(args)
    if args.command == "compare":
        report.update(parameters={"k": args.k}, evaluation=_evaluation(args))
        return report
    graph = read_edge_list(args.graph, directed=not args.undirected, dedupe=args.dedupe)
    report["parameters"], call = _COMMANDS[args.command](args, graph)
    if freeze_heap:
        # what has loaded by now lives until exit: no collection, the one at
        # shutdown included, walks it again
        gc.freeze()
    started = time.perf_counter()
    result = call()
    report["wall_seconds"] = time.perf_counter() - started
    n, m, lifetime = summarize(graph)
    report["graph"] = {
        "path": args.graph,
        "n": n,
        "edges": m,
        "lifetime": lifetime,
        "directed": graph.directed,
        "self_loops_dropped": graph.dropped_self_loops,
    }
    if hasattr(args, "opt"):
        report["optimality"] = args.opt
    if args.command == "diameter":
        report["summary"] = result._asdict()
        return report
    scores = result
    if isinstance(result, tuple):  # progressive runs also say why they stopped
        scores, stop = result
        report["stop"] = stop._asdict()
    if args.scores:
        scores.write_csv(args.scores, graph.node_ids)
        report["scores_path"] = args.scores
    else:
        report["scores"] = [
            {"node_id": nid, "score": val} for nid, val in zip(graph.node_ids, scores.scores)
        ]
    return report


def _emit(args, report: dict) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv: list[str] | None = None, *, freeze_heap: bool = False) -> int:
    """Run one command; return its exit code. With ``freeze_heap`` set (by
    :func:`tempbc.__main__.run` only), a graph command freezes the start-up
    heap just before its timed call."""
    argv = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(argv)
    try:
        _emit(args, _report(args, argv, freeze_heap))
    except GuardrailError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARDRAIL
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
