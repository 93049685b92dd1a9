"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criteria touching a real public dataset are skipped unless the file is present
(see helpers.dataset_path). Criteria 4 and 5 pin the progressive schedule's
starting sizes 350 / 631 / 1123 for accuracy 0.1 / 0.07 / 0.05 at confidence
0.1: the ceilings of the closed form, which is the exact root of the
zero-complexity stopping bound. 630 is not a valid middle value: the closed
form evaluates to 630.0323 and 630 samples leave the bound at
0.0700021 > 0.07. Criterion 4 derives these integers again at 50 digits.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    bruteforce_betweenness_all_opts,
    dataset_path,
    enumerate_dag_paths,
    expectation_ob,
    expectation_rtb,
    expectation_trk,
    make_g1,
    path_appearances,
    random_temporal_graph,
    random_temporal_graph_large,
)

from tempbc import (
    Algorithm,
    PathOptimality,
    compare,
    enumerate_paths_bruteforce,
    estimate_distances,
    exact_tbc,
    exact_tbc_fractions,
    full_tbfs,
    initial_sample_size,
    load_edge_list,
    progressive_estimate,
    prtb_estimate,
    rademacher_bound,
    read_edge_list,
    rtb_estimate,
    sample_optimal_path,
    stopping_xi,
    truncated_tbfs,
    write_edge_list,
)
from tempbc.cli import main as cli_main
from tempbc.progressive import RademacherState, update_values
from tempbc.rng import draw_source, substream

SH = PathOptimality.SHORTEST
PFM = PathOptimality.PREFIX_FOREMOST

COLLEGE_MSG = "CollegeMsg.txt"

# (epsilon, delta, schedule start): ceilings of the closed form, which
# evaluates to 349.2938, 630.0323 and 1122.5222 at these points
REFERENCE_START_SIZES = ((0.1, 0.1, 350), (0.07, 0.1, 631), (0.05, 0.1, 1123))


def _verdict(num: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\n[criterion {num:02d}] {name}: {status}")
    for item in failures:
        print(f"    - {item}")
    assert not failures, f"criterion {num:02d} {name}: " + " | ".join(failures)


def test_criterion_01_exact_equals_bruteforce():
    failures = []
    for seed in range(500):
        g = random_temporal_graph(seed, max_n=9, max_edges=25, max_time=6)
        oracle = bruteforce_betweenness_all_opts(g)
        for opt in PathOptimality:
            if exact_tbc_fractions(g, opt) != oracle[opt]:
                failures.append(f"graph seed {seed}, {opt.value}")
    _verdict(1, "exactness vs path enumeration (500 graphs, 3 criteria)", failures)


def test_criterion_02_estimators_are_unbiased():
    failures = []
    for seed in range(50):
        g = random_temporal_graph(seed + 7000, max_n=7, max_edges=18, max_time=6)
        for opt in PathOptimality:
            exact = exact_tbc_fractions(g, opt)
            for name, expectation in (
                ("rtb", expectation_rtb),
                ("ob", expectation_ob),
                ("trk", expectation_trk),
            ):
                got = expectation(g, opt)
                if any(
                    got.get(v, Fraction(0)) != exact.get(v, Fraction(0))
                    for v in range(g.n)
                ):
                    failures.append(f"seed {seed}, {opt.value}, {name}")
    _verdict(2, "estimator expectations equal exact scores (rational)", failures)


def test_criterion_03_path_sampler_uniformity():
    failures = []
    # symbolic: analytic branch-probability products on small random graphs
    for seed in range(50):
        g = random_temporal_graph(seed + 7000, max_n=7, max_edges=18, max_time=6)
        for opt in PathOptimality:
            for s in range(g.n):
                for z in range(g.n):
                    if s == z:
                        continue
                    tr = truncated_tbfs(g, s, z, opt)
                    sigma = tr.pair_sigma(z)
                    if sigma == 0:
                        continue
                    analytic = dict(enumerate_dag_paths(tr))
                    grouped = Counter(
                        path_appearances(p, s)
                        for p in enumerate_paths_bruteforce(g, s, z, opt)
                    )
                    want = {a: Fraction(m, sigma) for a, m in grouped.items()}
                    if analytic != want or sum(analytic.values()) != 1:
                        failures.append(f"seed {seed}, {opt.value}, pair ({s},{z})")

    # frequency: the two-path and three-path pair of the toy fixture
    g1 = make_g1()
    pair = (g1.index_of(1), g1.index_of(4))
    for opt, expected in ((SH, 0.5), (PFM, 1 / 3)):
        tr = truncated_tbfs(g1, pair[0], pair[1], opt)
        rng = substream(2024, 0)
        draws = 100_000
        counts = Counter(sample_optimal_path(tr, rng).appearances for _ in range(draws))
        if len(counts) != round(1 / expected):
            failures.append(f"{opt.value}: saw {len(counts)} distinct paths")
            continue
        for apps, c in counts.items():
            if abs(c / draws - expected) > 0.02:
                failures.append(f"{opt.value}: frequency {c / draws:.4f} off {expected:.4f}")
    _verdict(3, "path sampler uniform (symbolic + frequency)", failures)


def test_criterion_04_initial_sample_sizes():
    from mpmath import ceil, log, mp, mpf, sqrt

    failures = []
    with mp.workdps(50):
        for eps, delta, pinned in REFERENCE_START_SIZES:
            e, ln_term = mpf(eps), log(6 / mpf(delta))

            def xi(r: int):
                # stopping_xi(0, r, delta / 2), derived here without tempbc
                return 2 * ln_term / r + sqrt(ln_term / (2 * r))

            closed_form = (1 + 8 * e + sqrt(1 + 16 * e)) * ln_term / (4 * e * e)
            want = int(ceil(closed_form))
            analysis = (
                f"closed form {mp.nstr(closed_form, 10)}; bound "
                f"{mp.nstr(xi(want - 1), 9)} at {want - 1}, "
                f"{mp.nstr(xi(want), 9)} at {want}; epsilon {eps}"
            )
            if want != pinned:
                failures.append(f"reference {pinned} is not the ceiling {want} ({analysis})")
            if not (xi(want) <= e < xi(want - 1)):
                failures.append(f"{want} is not the smallest size meeting the bound ({analysis})")
            got = initial_sample_size(eps, delta)
            if got != want:
                failures.append(
                    f"initial_sample_size({eps}, {delta}) = {got}, derived {want} ({analysis})"
                )
    _verdict(4, "initial sample sizes are the smallest that meet the bound", failures)


def _smallest_r_meeting_bound(eps: float, delta: float) -> int:
    r = 1
    while stopping_xi(0.0, r, delta / 2) > eps:
        r += 1
    return r


def test_criterion_05_rademacher_machinery():
    failures = []
    # bound vs a 10^4-point grid-search oracle on 100 random states
    rng_master = np.random.default_rng(99)
    for case in range(100):
        n = int(rng_master.integers(2, 40))
        state = RademacherState(n)
        updates = int(rng_master.integers(5, 300))
        for _ in range(updates):
            update_values(state, int(rng_master.integers(n)), float(rng_master.random()))
        r = int(rng_master.integers(1, 500))
        got = rademacher_bound(state, r)
        want = _grid_oracle(state, r)
        if abs(got - want) > 1e-6 * max(1.0, want):
            failures.append(f"state {case}: bound {got!r} vs grid {want!r}")

    # solving the zero-complexity bound for the smallest sufficient size must
    # reproduce the criterion-4 integers
    for eps, delta, want in REFERENCE_START_SIZES:
        solved = _smallest_r_meeting_bound(eps, delta)
        if solved != initial_sample_size(eps, delta):
            failures.append(f"solve({eps}) = {solved} != initial_sample_size")
        if solved != want:
            failures.append(
                f"solve({eps}) = {solved}, reference integer is {want} "
                f"(bound at {want}: {stopping_xi(0.0, want, delta / 2):.7f})"
            )
    _verdict(5, "bound matches grid oracle; solved sizes match reference", failures)


def _grid_oracle(state: RademacherState, r: int, points: int = 10_000) -> float:
    entries = list(state.b.items())
    z0 = state.untouched

    def w(s: float) -> float:
        scale = s * s / (2.0 * r * r)
        exps = [scale * x for x, _ in entries]
        m = max(exps + [0.0]) if z0 else max(exps)
        total = sum(c * math.exp(a - m) for a, (_, c) in zip(exps, entries))
        if z0:
            total += z0 * math.exp(-m)
        return (m + math.log(total)) / s

    s, best_s, best = 1e-4, 1e-4, w(1e-4)
    while s < 1e9:
        s *= 1.2
        val = w(s)
        if val < best:
            best_s, best = s, val
    lo, hi = max(1e-4, best_s / 2), best_s * 2
    return min(w(x) for x in np.linspace(lo, hi, points))


def test_criterion_06_progressive_guarantee_desk_scale(synth200):
    graph, exact = synth200
    eps, delta = 0.1, 0.1
    ok = 0
    runs = 100
    sizes = []
    for seed in range(runs):
        scores, report = progressive_estimate(
            graph, SH, eps, delta, 1.5, Algorithm.OB, seed
        )
        sizes.append(report.final_sample_size)
        if np.max(np.abs(scores.values - exact.values)) <= eps:
            ok += 1
    failures = [] if ok >= 95 else [f"only {ok}/100 runs within {eps}"]
    if min(sizes) < initial_sample_size(eps, delta):
        failures.append("a run stopped before the initial sample size")
    _verdict(6, f"progressive pair sampling within eps in {ok}/100 runs", failures)


def test_criterion_07_prtb_stopping_semantics():
    failures = []
    g1 = make_g1()

    # estimator identity at the stopping time, across seeds
    for seed in range(10):
        scores, report = prtb_estimate(g1, SH, 2.0, seed, max_samples=500)
        fixed = rtb_estimate(g1, SH, report.final_sample_size, seed)
        if not np.array_equal(scores.values, fixed.values):
            failures.append(f"seed {seed}: output differs from fixed-sample estimator")

    # the stop happens at the first sample whose running max crosses c*n
    scores, report = prtb_estimate(g1, SH, 2.0, seed=3, max_samples=5000)
    totals: dict[int, Fraction] = {}
    crossed_at = None
    for i in range(report.final_sample_size):
        s = draw_source(substream(3, i), g1.n)
        for v, val in full_tbfs(g1, s, SH).dependency.items():
            totals[v] = totals.get(v, Fraction(0)) + val
        if max(totals.values(), default=Fraction(0)) >= 2.0 * g1.n and crossed_at is None:
            crossed_at = i + 1
    if crossed_at != report.final_sample_size:
        failures.append(f"stopped at {report.final_sample_size}, first crossing {crossed_at}")

    # high-centrality star: estimate of the hub's unnormalized score within a
    # factor 1/eps in at least (1 - 2 eps) of 200 runs, eps = 0.25
    leaves = 51
    lines = [f"{i} {leaves} 1\n" for i in range(leaves)] + [
        f"{leaves} {i} 2\n" for i in range(leaves)
    ]
    star = load_edge_list("".join(lines))
    hub = star.index_of(leaves)
    n = star.n
    truth = float(
        exact_tbc_fractions(star, SH)[hub] * n * (n - 1)
    )  # unnormalized hub score
    eps = 0.25
    good = 0
    runs = 200
    for seed in range(runs):
        scores, report = prtb_estimate(star, SH, 2.0, seed, max_samples=2000)
        acc = scores.values[hub] * (n - 1) * report.final_sample_size
        estimate = n * acc / report.final_sample_size
        if abs(estimate - truth) <= truth / eps:
            good += 1
    if good < (1 - 2 * eps) * runs:
        failures.append(f"star-graph factor check: {good}/{runs} runs")
    _verdict(7, "source-sampling heuristic stopping semantics", failures)


def test_criterion_08_distance_summary():
    failures = []
    # unconditional: census equals brute force on random graphs
    for seed in range(40):
        g = random_temporal_graph(seed + 31)
        census = estimate_distances(g, g.n, 0.9, 0)
        pairs = {}
        for s in range(g.n):
            hops = _reference_hops(g, s)
            for v, h in hops.items():
                if v != s:
                    pairs[(s, v)] = h
        if not pairs:
            if census.has_paths:
                failures.append(f"seed {seed}: expected degenerate summary")
            continue
        if census.diameter != max(pairs.values()):
            failures.append(f"seed {seed}: diameter")
        if abs(census.connectivity_rate - len(pairs) / (g.n * (g.n - 1))) > 1e-12:
            failures.append(f"seed {seed}: connectivity rate")
        if abs(census.avg_distance - sum(pairs.values()) / len(pairs)) > 1e-9:
            failures.append(f"seed {seed}: average distance")

    # conditional: the public College msg dataset at 64 sampled sources
    path = dataset_path(COLLEGE_MSG)
    if path is not None:
        g = read_edge_list(path)
        est = estimate_distances(g, 64, 0.9, seed=1)
        if not 0.48 <= est.connectivity_rate <= 0.54:
            failures.append(f"College msg connectivity {est.connectivity_rate:.3f}")
        if not 4.4 <= est.avg_distance <= 4.8:
            failures.append(f"College msg avg distance {est.avg_distance:.3f}")
        if not 14 <= est.diameter <= 17:
            failures.append(f"College msg diameter {est.diameter}")
    else:
        print("\n[criterion 08] note: College msg dataset not present, census part only")
    _verdict(8, "distance summary census exact (+ dataset bands when present)", failures)


def _reference_hops(graph, s):
    apps = {(s, 0): 0}
    frontier = [(s, 0)]
    best: dict[int, int] = {s: 0}
    h = 0
    while frontier:
        h += 1
        nxt = []
        for v, t in frontier:
            for t2, w in graph.out_edges_after(v, t):
                if (w, t2) not in apps:
                    apps[(w, t2)] = h
                    nxt.append((w, t2))
                    if w not in best:
                        best[w] = h
        frontier = nxt
    return best


def test_criterion_09_methodology_on_college_msg():
    path = dataset_path(COLLEGE_MSG)
    if path is None:
        print("\n[criterion 09] SKIP: College msg dataset not present")
        pytest.skip("College msg dataset not present (drop CollegeMsg.txt into data/)")
    failures = []
    g = read_edge_list(path)
    # fastest criterion at desk scale; full-scale reproduction is out of scope
    opt = PFM
    exact = exact_tbc(g, opt, force=True)
    sizes_ob, sizes_trk = [], []
    for eps, c in ((0.1, 2.0), (0.07, 3.0), (0.05, 4.0)):
        ob_scores, ob_stop = progressive_estimate(g, opt, eps, 0.1, 1.5, Algorithm.OB, 1)
        trk_scores, trk_stop = progressive_estimate(g, opt, eps, 0.1, 1.5, Algorithm.TRK, 1)
        sizes_ob.append(ob_stop.final_sample_size)
        sizes_trk.append(trk_stop.final_sample_size)
        budget = max(2, ob_stop.final_sample_size // g.n)
        rtb_scores = rtb_estimate(g, opt, budget, 1)
        mse_ob = compare(exact, ob_scores).mse
        mse_trk = compare(exact, trk_scores).mse
        mse_rtb = compare(exact, rtb_scores).mse
        if not (mse_ob < mse_rtb and mse_trk < mse_rtb):
            failures.append(f"eps={eps}: MSE ordering {mse_ob:.3g}/{mse_trk:.3g} vs {mse_rtb:.3g}")
    if sizes_ob != sorted(sizes_ob) or sizes_trk != sorted(sizes_trk):
        failures.append(f"sample sizes not monotone in accuracy: {sizes_ob}, {sizes_trk}")
    _verdict(9, "methodology exercise on College msg", failures)


def test_criterion_10_thread_count_determinism(tmp_path):
    failures = []
    graph_file = tmp_path / "graph.txt"
    write_edge_list(random_temporal_graph_large(77, n=60, m=240, max_time=30), graph_file)

    commands = {
        "exact": ["exact", str(graph_file), "--opt", "sh"],
        "rtb": ["fixed", str(graph_file), "--algo", "rtb", "--samples", "400", "--seed", "5"],
        "ob": ["fixed", str(graph_file), "--algo", "ob", "--samples", "400", "--seed", "5"],
        "trk": ["fixed", str(graph_file), "--algo", "trk", "--samples", "400", "--seed", "5"],
        # the vertex-diameter estimate runs a 60-source distance census first
        "ob-vc": ["fixed", str(graph_file), "--algo", "ob", "--bound", "vc", "--seed", "5"],
        "diameter": ["diameter", str(graph_file), "--samples", "40", "--seed", "5"],
        "prog-ob": [
            "progressive", str(graph_file), "--algo", "ob",
            "--epsilon", "0.25", "--delta", "0.1", "--seed", "5",
        ],
        # at eps = 0.1 the checkpoint batches are 350/175/263/394 samples,
        # each cut into about four chunks per worker, so every batch fans out
        "prog-ob-eps0.1": [
            "progressive", str(graph_file), "--algo", "ob",
            "--epsilon", "0.1", "--delta", "0.1", "--seed", "5",
        ],
        "prog-trk-eps0.1": [
            "progressive", str(graph_file), "--algo", "trk",
            "--epsilon", "0.1", "--delta", "0.1", "--seed", "5",
        ],
    }
    report_path = tmp_path / "report.json"
    for name, argv in commands.items():
        outputs = []
        stops = []
        reports = []
        for threads in (1, 4, 8):
            out = tmp_path / f"{name}-{threads}.csv"
            # diameter writes no score CSV and takes no --scores; its summary
            # is in the report
            scores = [] if name == "diameter" else ["--scores", str(out)]
            code = cli_main(argv + ["--threads", str(threads), *scores, "--out", str(report_path)])
            if code != 0:
                failures.append(f"{name} at {threads} threads exited {code}")
                continue
            outputs.append(out.read_bytes() if out.exists() else None)
            report = json.loads(report_path.read_text())
            stops.append(report.get("stop"))
            report["parameters"].pop("threads")
            for key in ("command", "wall_seconds", "scores_path"):
                report.pop(key, None)
            reports.append(report)
        if len(set(outputs)) != 1:
            failures.append(f"{name}: score CSVs differ across 1/4/8 threads")
        if any(stop != stops[0] for stop in stops):
            failures.append(f"{name}: stop sections differ across 1/4/8 threads: {stops}")
        if any(report != reports[0] for report in reports):
            failures.append(f"{name}: reports differ across 1/4/8 threads")
    _verdict(10, "byte-identical score CSVs and reports across 1/4/8 threads", failures)
