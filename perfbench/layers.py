"""Traced run: the per-layer metrics.

Calls each layer's public functions in-process and records one span per
call (name, start, end, parent, run id). Spans are kept in memory and written
to ``perfbench/out/trace-<workload>-<seed>.json`` at the end. The run:

1. loads and indexes the graph (``graph``);
2. runs the workload's commands once untraced (the references) and once
   traced, then probe calls for the layers the commands bypass, with
   ``run_chunks`` wrapped so that chunks and bytes shipped are counted
   (``exact``, ``samplers``, ``distances``, ``progressive``, ``parallel``);
3. runs the fan-out command again at one worker, timing each chunk
   (``parallel.speedup`` and ``parallel.chunk_imbalance``);
4. runs the workload's CLI commands once (``cli.overhead_s``);
5. probes full and truncated searches, distance searches, the samplers and
   path drawing on a fixed set of seeded pairs (``tbfs``, ``samplers``,
   ``distances``, ``rng``);
6. replays the progressive run's samples to time its bookkeeping.
"""

from __future__ import annotations

import inspect
import itertools
import json
import pickle
import statistics
import sys
import time
from typing import NamedTuple

from measure import load_graph_timed, run_sequence, summarize
from workloads import (
    EXACT_PROBE_ROWS,
    THREADS,
    Command,
    Outcome,
    compare_outcomes,
    max_abs_err_vs_rational,
    run_inprocess,
)

PROBE_PAIRS = 40
RNG_DRAWS = 2000
PATH_DRAWS = 10  # per connected probe pair
GRAPH_INDEXES = 3
GRAPH_LOADS = 5


class Call(NamedTuple):
    """One traced in-process call and what it produced."""

    cmd: Command
    graph: object
    out: Outcome
    ref: Outcome | None
    span: "Span"


class Span:
    __slots__ = ("tracer", "name", "parent", "start", "end", "attrs")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.parent = None
        self.start = self.end = None

    def __enter__(self) -> "Span":
        stack = self.tracer.stack
        self.parent = stack[-1] if stack else None
        stack.append(self)
        self.tracer.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.tracer.stack.pop()

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``span(name)`` is a context manager."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.origin = time.perf_counter()

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def find(self, name: str, within: Span | None = None) -> list[Span]:
        found = [s for s in self.spans if s.name == name]
        if within is not None:
            found = [s for s in found if within.start <= s.start and s.end <= within.end]
        return found

    def write(self, path) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            {
                "id": i,
                "name": s.name,
                "parent": ids.get(id(s.parent)),
                "run": self.run_id,
                "start": s.start - self.origin,
                "end": s.end - self.origin,
                **s.attrs,
            }
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


class ChunkRecorder:
    """Wraps ``run_chunks`` in every tempbc module that imported it.

    Each call gets a ``parallel.run_chunks`` span with its chunk count and
    the bytes shipped to workers, computed as the pickled worker times the
    chunk count (the serial path ships nothing). At one worker each chunk
    also gets a ``parallel.chunk`` span.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.patched: list[tuple[object, object]] = []

    def __enter__(self) -> "ChunkRecorder":
        from tempbc import parallel

        original = parallel.run_chunks
        wrapped = self._wrap(original, parallel.chunk_ranges)
        for name, module in list(sys.modules.items()):
            if name.startswith("tempbc.") and getattr(module, "run_chunks", None) is original:
                if module is not parallel:
                    self.patched.append((module, original))
                    module.run_chunks = wrapped
        return self

    def __exit__(self, *exc) -> None:
        for module, original in self.patched:
            module.run_chunks = original
        self.patched.clear()

    def _wrap(self, original, chunk_ranges):
        signature = inspect.signature(original)
        tracer = self.tracer

        def run_chunks(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            worker, total, threads, chunk = (
                bound.arguments[k] for k in ("worker", "total", "threads", "chunk")
            )
            chunks = len(chunk_ranges(total, chunk))
            fanned = threads > 1 and chunks > 1
            shipped = len(pickle.dumps(worker)) * chunks if fanned else 0
            if not fanned:
                inner = worker

                def worker(lo, hi):
                    with tracer.span("parallel.chunk", lo=lo, hi=hi):
                        return inner(lo, hi)

            with tracer.span("parallel.run_chunks", chunks=chunks, bytes_shipped=shipped, threads=threads):
                yield from original(worker, total, threads, chunk)

        return run_chunks


def _timing(metrics: dict, name: str, unit: str, scale: float, seconds: list[float]) -> None:
    if not seconds:
        raise RuntimeError(f"no samples for {name}")
    summary = summarize([s * scale for s in seconds])
    metrics[f"{name}.p50"] = (summary["p50"], unit)
    metrics[f"{name}.tail"] = (summary["tail"], unit)
    metrics[f"{name}.n"] = (summary["n"], "count")


def traced_run(launcher, workload, graph_path, seed: int, work, out_dir) -> dict:
    from tempbc import TemporalGraph, load_edge_list

    tracer = Tracer(f"{workload.name}-{seed}")
    metrics: dict = {}
    ops: list[dict] = []

    def record(command: str, problems: list[str]) -> None:
        ops.append({"command": command, "problems": problems})

    # graph: load, index, pickle
    with tracer.span("graph.loads", loads=GRAPH_LOADS):
        graph, load_times, _ = load_graph_timed(graph_path, GRAPH_LOADS, 0.0)
    for _ in range(GRAPH_INDEXES):
        with tracer.span("graph.index"):
            TemporalGraph(
                graph.n, list(graph.edges), graph.T, directed=graph.directed,
                node_ids=graph.node_ids, dropped_self_loops=graph.dropped_self_loops,
            )
    metrics["graph.load_s"] = (statistics.median(load_times), "s")
    metrics["graph.index_s"] = (statistics.median(s.seconds for s in tracer.find("graph.index")), "s")
    metrics["graph.pickle_bytes"] = (len(pickle.dumps(graph)), "bytes")

    exact_graph = graph
    if not any(cmd.kind == "exact" for cmd in workload.commands):
        with open(graph_path, encoding="utf-8") as fh:
            exact_graph = load_edge_list(list(itertools.islice(fh, EXACT_PROBE_ROWS)))
    calls = [
        (cmd, exact_graph if cmd.kind == "exact" else graph)
        for cmd in workload.commands + workload.probes
    ]

    # each command untraced (its reference), then traced, interleaved so that
    # drift on a shared machine does not land on one side. Probes run traced
    # only, except that exact calls also run through the rationals.
    n_commands = len(workload.commands)
    refs, outs, command_spans = [], [], []
    untraced_s = 0.0
    for i, (cmd, g) in enumerate(calls):
        ref = None
        if i < n_commands or cmd.kind == "exact":
            started = time.perf_counter()
            ref = run_inprocess(cmd, g, seed, THREADS, rational=True)
            if i < n_commands:
                untraced_s += time.perf_counter() - started
        kind = "command" if i < n_commands else "probe"
        with ChunkRecorder(tracer), tracer.span(kind, command=cmd.name) as sp:
            out = run_inprocess(cmd, g, seed, THREADS, tracer.span)
        if ref is not None:
            record(cmd.name, compare_outcomes(out, ref))
        refs.append(ref)
        outs.append(out)
        command_spans.append(sp)
    traced_s = sum(sp.seconds for sp in command_spans[:n_commands])
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")

    by_kind: dict[str, list[Call]] = {}
    for (cmd, g), out, ref, sp in zip(calls, outs, refs, command_spans):
        by_kind.setdefault(cmd.kind, []).append(Call(cmd, g, out, ref, sp))

    exact_s = work_units = sources = 0
    max_err = 0.0
    for call in by_kind["exact"]:
        exact_s += call.span.seconds
        sources += call.graph.n
        work_units += call.out.params["work_estimate"]
        max_err = max(max_err, max_abs_err_vs_rational(call.out.values, call.ref.fractions))
    metrics["exact.sources_per_s"] = (sources / exact_s, "1/s")
    metrics["exact.ns_per_work_unit"] = (exact_s * 1e9 / work_units, "ns")
    metrics["exact.max_abs_err_vs_rational"] = (max_err, "abs")

    vc = next(call for call in by_kind["fixed"] if call.cmd.bound == "vc")
    metrics["samplers.vc_samples"] = (vc.out.params["samples"], "count")
    vd_spans = tracer.find("distances.estimate_distances", within=vc.span)
    metrics["distances.vd_estimate_s"] = (sum(s.seconds for s in vd_spans), "s")

    fan_spans = [tracer.find("parallel.run_chunks", within=sp) for sp in command_spans[:n_commands]]
    fan_spans = [s for spans in fan_spans for s in spans]
    metrics["parallel.chunks"] = (sum(s.attrs["chunks"] for s in fan_spans), "count")
    metrics["parallel.bytes_shipped"] = (sum(s.attrs["bytes_shipped"] for s in fan_spans), "bytes")

    # the fan-out command (the first) again at one worker
    fan_cmd, fan_graph = calls[0]
    with ChunkRecorder(tracer), tracer.span("serial_fanout") as serial:
        out = run_inprocess(fan_cmd, fan_graph, seed, 1, tracer.span)
    record(f"{fan_cmd.name} threads=1", compare_outcomes(out, refs[0], same_params=False))
    metrics["parallel.speedup"] = (serial.seconds / command_spans[0].seconds, "ratio")
    serial_fans = tracer.find("parallel.run_chunks", within=serial)
    chunk_times = []
    if serial_fans:
        main_fan = max(serial_fans, key=lambda s: s.seconds)
        chunk_times = [s.seconds for s in tracer.find("parallel.chunk", within=main_fan)]
    imbalance = max(chunk_times) / statistics.mean(chunk_times) if chunk_times else 1.0
    metrics["parallel.chunk_imbalance"] = (imbalance, "ratio")

    # the CLI commands once, for the cost around the reports' wall_seconds
    cli_ops = run_sequence(launcher, workload, graph_path, seed, refs[:n_commands], work)
    for op in cli_ops:
        record(f"cli {op['command']}", op["problems"])
    overhead = sum(op["wall_s"] - (op["report_wall_s"] or 0.0) for op in cli_ops)
    metrics["cli.overhead_s"] = (overhead, "s")

    _probe_layers(tracer, metrics, graph, seed)
    prog = by_kind["progressive"][0]
    record("progressive replay", _replay_progressive(tracer, metrics, graph, seed, prog))

    tracer.write(out_dir / f"trace-{workload.name}-{seed}.json")
    failed = sum(1 for op in ops if op["problems"])
    return {
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
        "detail": {"ops": ops, "spans": len(tracer.spans)},
    }


def _probe_layers(tracer: Tracer, metrics: dict, graph, seed: int) -> None:
    """Searches, distances, samplers and path draws on seeded probe pairs.

    Pair i comes from ``substream(seed * 2**20 + i, 0)``; its source is the
    one ``estimate_distances`` draws for a one-source sample with that seed,
    so the full search and the distance search start from the same source.
    """
    from tempbc.distances import estimate_distances
    from tempbc.rng import draw_pair, substream
    from tempbc.samplers import ob_estimate, sample_optimal_path, trk_estimate
    from tempbc.tbfs import PathOptimality, full_tbfs, truncated_tbfs

    opts = {o.value: o for o in PathOptimality}
    full_apps = dict.fromkeys(opts, 0)
    trunc_apps = dict.fromkeys(opts, 0)
    pred_arcs = sigma_bits = connected = 0
    with tracer.span("probes") as probes:
        for i in range(RNG_DRAWS):
            with tracer.span("rng.draw"):
                draw_pair(substream(seed, i), graph.n)
        for i in range(PROBE_PAIRS):
            key = seed * 2**20 + i
            s, z = draw_pair(substream(key, 0), graph.n)
            with tracer.span("distances.source"):
                estimate_distances(graph, 1, 1.0, key, threads=1)
            for tag, opt in opts.items():
                with tracer.span(f"tbfs.full.{tag}"):
                    full = full_tbfs(graph, s, opt)
                full_apps[tag] += len(full.records)
                sigma_bits = max(sigma_bits, max(r.sigma.bit_length() for r in full.records.values()))
                if tag == "sh":
                    pred_arcs += sum(len(r.predecessors) for r in full.records.values())
                with tracer.span(f"tbfs.trunc.{tag}"):
                    trunc = truncated_tbfs(graph, s, z, opt)
                trunc_apps[tag] += len(trunc.records)
                if tag == "sh" and trunc.pair_sigma(z) > 0:
                    connected += 1
                    for j in range(1, PATH_DRAWS + 1):
                        with tracer.span("samplers.path_draw"):
                            sample_optimal_path(trunc, substream(key, j))
            with tracer.span("samplers.ob"):
                ob_estimate(graph, opts["sh"], 1, seed, pairs=[(s, z)])
            with tracer.span("samplers.trk"):
                trk_estimate(graph, opts["sfm"], 1, seed, pairs=[(s, z)])

    def seconds(name):
        return [sp.seconds for sp in tracer.find(name, within=probes)]

    _timing(metrics, "rng.draw_us", "us", 1e6, seconds("rng.draw"))
    for tag in ("sh", "pfm"):
        _timing(metrics, f"tbfs.full_ms.{tag}", "ms", 1e3, seconds(f"tbfs.full.{tag}"))
    for tag in ("sh", "sfm"):
        _timing(metrics, f"tbfs.trunc_ms.{tag}", "ms", 1e3, seconds(f"tbfs.trunc.{tag}"))
    for tag in opts:
        metrics[f"tbfs.appearances.{tag}"] = (full_apps[tag], "count")
        metrics[f"tbfs.trunc_touch_ratio.{tag}"] = (trunc_apps[tag] / full_apps[tag], "ratio")
    metrics["tbfs.pred_arcs"] = (pred_arcs, "count")
    metrics["tbfs.sigma_bits_max"] = (sigma_bits, "bits")
    metrics["tbfs.search_floor_ratio"] = (
        sum(seconds("tbfs.full.sh")) / sum(seconds("distances.source")), "ratio"
    )
    _timing(metrics, "distances.source_ms", "ms", 1e3, seconds("distances.source"))
    _timing(metrics, "samplers.ob_ms", "ms", 1e3, seconds("samplers.ob"))
    _timing(metrics, "samplers.trk_ms", "ms", 1e3, seconds("samplers.trk"))
    _timing(metrics, "samplers.path_draw_us", "us", 1e6, seconds("samplers.path_draw"))
    metrics["samplers.connected_frac"] = (connected / PROBE_PAIRS, "ratio")


def _replay_progressive(tracer: Tracer, metrics: dict, graph, seed: int, prog: Call) -> list[str]:
    """Rebuild the progressive run's state sample by sample through the
    public ``update_values``, timing each search, update and bound."""
    from tempbc.progressive import (
        RademacherState,
        Schedule,
        initial_sample_size,
        rademacher_bound,
        update_values,
    )
    from tempbc.rng import draw_pair, substream
    from tempbc.tbfs import PathOptimality, truncated_tbfs

    cmd, out = prog.cmd, prog.out
    done = out.stop["final_sample_size"]
    schedule = Schedule(initial_sample_size(cmd.epsilon, cmd.delta), 1.5)
    cap = cmd.max_samples or done
    checkpoints = {min(schedule.size(i), cap) for i in range(1, out.stop["iterations"] + 1)}
    opt = PathOptimality.parse(cmd.opt)
    state = RademacherState(graph.n)
    with tracer.span("progressive.replay") as replay:
        for i in range(done):
            s, z = draw_pair(substream(seed, i), graph.n)
            with tracer.span("tbfs.truncated_tbfs"):
                result = truncated_tbfs(graph, s, z, opt)
            if result.pair_sigma(z) > 0:
                for u in sorted(result.dependency):
                    value = float(result.dependency[u])
                    with tracer.span("progressive.update_values"):
                        update_values(state, u, value)
            if i + 1 in checkpoints:
                with tracer.span("progressive.rademacher_bound"):
                    rademacher_bound(state, i + 1)

    def seconds(name):
        return [sp.seconds for sp in tracer.find(name, within=replay)]

    metrics["progressive.samples"] = (done, "count")
    metrics["progressive.checkpoints"] = (out.stop["iterations"], "count")
    _timing(metrics, "progressive.bound_ms", "ms", 1e3, seconds("progressive.rademacher_bound"))
    _timing(metrics, "progressive.update_us", "us", 1e6, seconds("progressive.update_values"))
    metrics["progressive.search_share"] = (
        sum(seconds("tbfs.truncated_tbfs")) / prog.span.seconds, "ratio"
    )
    replayed = [state.b1.get(u, 0.0) / done for u in range(graph.n)]
    return [] if replayed == out.values else ["replayed state differs from the progressive run"]
