from __future__ import annotations

import math
import re

import numpy as np
import pytest

from helpers import random_temporal_graph_large

from tempbc import (
    Algorithm,
    PathOptimality,
    RademacherState,
    Schedule,
    StopReason,
    TemporalGraph,
    exact_tbc,
    hoeffding_size,
    initial_sample_size,
    load_edge_list,
    ob_estimate,
    progressive_estimate,
    prtb_estimate,
    rademacher_bound,
    rtb_estimate,
    stopping_xi,
    update_values,
)
from tempbc.parallel import chunk_ranges
from tempbc.progressive import _log_mass
from tempbc.rng import draw_pair, draw_source, substream

SH = PathOptimality.SHORTEST


# --- initial sample size -----------------------------------------------------

def test_initial_sample_size_is_ceiling_of_closed_form():
    # ceil((1 + 8e + sqrt(1 + 16e)) ln(6/d) / (4 e^2)); the exact values of
    # the closed form at these points are 349.2938, 630.0323, 1122.5222
    assert initial_sample_size(0.1, 0.1) == 350
    assert initial_sample_size(0.07, 0.1) == 631
    assert initial_sample_size(0.05, 0.1) == 1123


@pytest.mark.parametrize("eps", [1e-200, 1e-160])
def test_initial_sample_size_tiny_epsilon_is_a_value_error(eps):
    with pytest.raises(ValueError, match=f"epsilon {eps!r} is too small"):
        initial_sample_size(eps, 0.1)


def test_initial_sample_size_validates():
    for eps, delta in [(0.0, 0.1), (1.0, 0.1), (0.1, 0.0), (0.1, 1.0), (-1, 0.5)]:
        with pytest.raises(ValueError):
            initial_sample_size(eps, delta)


def test_initial_size_satisfies_zero_complexity_bound():
    # the bound at zero complexity with budget delta/2 must already be able to
    # reach epsilon at the starting size, and fail one sample earlier
    for eps in (0.1, 0.07, 0.05, 0.3):
        r = initial_sample_size(eps, 0.1)
        assert stopping_xi(0.0, r, 0.05) <= eps
        assert stopping_xi(0.0, r - 1, 0.05) > eps


# --- update bookkeeping ------------------------------------------------------

def test_update_values_traces():
    st = RademacherState(4)
    update_values(st, 0, 0.5)
    assert st.b == {0.25: 1}
    assert st.b1 == {0: 0.5}
    assert st.b2 == {0: 0.25}
    update_values(st, 0, 0.5)
    assert st.b == {0.5: 1}
    assert st.b1 == {0: 1.0}
    assert st.b2 == {0: 0.5}
    before = (dict(st.b), dict(st.b1), dict(st.b2))
    update_values(st, 0, 0.0)
    assert (dict(st.b), dict(st.b1), dict(st.b2)) == before
    assert st.untouched == 3


def test_a_value_whose_square_underflows_keeps_the_node_untouched():
    # 1e-200 squared is 0.0: the node's norm stays 0, so its mass stays in
    # the bound (ln 3 over three zero norms, not ln 2), and its score still
    # counts the value
    st = RademacherState(3)
    update_values(st, 0, 1e-200)
    assert st.b == {} and st.b2 == {}
    assert st.b1 == {0: 1e-200}
    assert st.untouched == 3
    assert _log_mass(st, 1.0, 10) == math.log(3)
    update_values(st, 0, 0.5)
    assert st.b == {0.25: 1} and st.b2 == {0: 0.25}
    assert st.b1 == {0: 0.5 + 1e-200}
    assert st.untouched == 2


def test_update_values_contract():
    st = RademacherState(2)
    with pytest.raises(ValueError):
        update_values(st, 0, 1.5)
    with pytest.raises(ValueError):
        update_values(st, 0, -0.1)


def test_update_values_norm_multiset_matches_squared_sums():
    rng = np.random.default_rng(4)
    st = RademacherState(10)
    for _ in range(500):
        update_values(st, int(rng.integers(10)), float(rng.random()))
    expanded = sorted(
        key for key, count in st.b.items() for _ in range(count)
    )
    assert expanded == sorted(st.b2.values())
    assert sum(st.b.values()) == len(st.b2)


# --- bound minimization ------------------------------------------------------

def _grid_min(state: RademacherState, r: int, points: int = 10_000) -> float:
    """Independent oracle: coarse geometric scan, then a fine linear grid."""
    entries = list(state.b.items())
    z0 = state.untouched

    def w(s: float) -> float:
        scale = s * s / (2.0 * r * r)
        exps = [scale * x for x, _ in entries]
        m = max(exps + [0.0] if z0 else exps)
        total = sum(c * math.exp(a - m) for a, (_, c) in zip(exps, entries))
        if z0:
            total += z0 * math.exp(-m)
        return (m + math.log(total)) / s

    s = 1e-4
    best_s, best = s, w(s)
    while s < 1e9:
        s *= 1.2
        val = w(s)
        if val < best:
            best_s, best = s, val
    lo, hi = max(1e-4, best_s / 2), best_s * 2
    return min(w(x) for x in np.linspace(lo, hi, points))


def test_bound_zero_state_is_negligible():
    st = RademacherState(100)
    assert rademacher_bound(st, 10) <= 1e-6


def test_bound_example_two_norms():
    st = RademacherState(2)
    st.b = {4.0: 1, 1.0: 1}
    st.b2 = {0: 4.0, 1: 1.0}
    st.b1 = {0: 2.0, 1: 1.0}
    got = rademacher_bound(st, 4)
    assert abs(got - _grid_min(st, 4)) <= 1e-6


def test_bound_single_node_boundary_case():
    r = 8
    st = RademacherState(1)
    st.b = {float(r): 1}
    st.b2 = {0: float(r)}
    st.b1 = {0: float(r)}
    got = rademacher_bound(st, r)
    assert abs(got - _grid_min(st, r)) <= 1e-6


def _random_state(seed: int, n: int = 30) -> RademacherState:
    rng = np.random.default_rng(seed)
    st = RademacherState(n)
    for _ in range(int(rng.integers(5, 200))):
        update_values(st, int(rng.integers(n)), float(rng.random()))
    return st


@pytest.mark.parametrize("seed", range(30))
def test_bound_matches_grid_oracle(seed):
    st = _random_state(seed)
    r = (seed % 7 + 1) * 40
    got = rademacher_bound(st, r)
    want = _grid_min(st, r)
    assert got <= want + 1e-9  # search result can only improve on the grid
    assert abs(got - want) <= 1e-6 * max(1.0, want)


# --- stopping bound ----------------------------------------------------------

def test_stopping_xi_against_high_precision():
    from mpmath import mp, mpf, log, sqrt

    mp.dps = 50
    cases = [(0.0, 100, 0.5), (0.01, 350, 0.05), (0.2, 17, 0.025), (0.0, 10**6, 0.001)]
    for R, r, d in cases:
        ln = log(3 / mpf(d))
        want = 2 * mpf(R) + (ln + sqrt((ln + 4 * r * mpf(R)) * ln)) / r + sqrt(ln / (2 * r))
        assert stopping_xi(R, r, d) == pytest.approx(float(want), rel=1e-13)


def test_stopping_xi_monotone():
    values = [stopping_xi(0.0, r, 0.05) for r in (10**2, 10**3, 10**4, 10**5, 10**6)]
    assert all(a > b for a, b in zip(values, values[1:]))
    grows = [stopping_xi(R, 100, 0.05) for R in (0.0, 0.01, 0.1, 0.5)]
    assert all(a < b for a, b in zip(grows, grows[1:]))


def test_stopping_xi_validates():
    with pytest.raises(ValueError):
        stopping_xi(-0.1, 10, 0.5)
    with pytest.raises(ValueError):
        stopping_xi(0.1, 0, 0.5)
    with pytest.raises(ValueError):
        stopping_xi(0.1, 10, 1.0)


# --- schedule ----------------------------------------------------------------

def test_schedule_sizes():
    sched = Schedule(350, 1.5)
    sizes = [sched.size(i) for i in range(1, 8)]
    assert sizes[0] == 350
    assert sizes == sorted(sizes)
    assert sizes[1] == math.ceil(1.5 * 350)
    with pytest.raises(ValueError):
        Schedule(0, 1.5)
    with pytest.raises(ValueError):
        Schedule(10, 1.0)


@pytest.mark.parametrize("alpha", [math.inf, math.nan])
def test_schedule_rejects_an_alpha_that_is_not_finite(alpha):
    with pytest.raises(ValueError, match="alpha must be finite"):
        Schedule(10, alpha)


@pytest.mark.parametrize("alpha, iteration", [(1e308, 2), (1e200, 3)])
def test_an_unbounded_checkpoint_size_is_a_value_error_naming_alpha(alpha, iteration):
    # 1e308 * 10 overflows to inf, and 1e200 ** 2 raises OverflowError
    sched = Schedule(10, alpha)
    assert sched.size(1) == 10
    with pytest.raises(ValueError, match=re.escape(f"alpha {alpha!r} makes checkpoint {iteration}")):
        sched.size(iteration)
    # a cap bounds the size before it is rounded
    assert sched.size(iteration, cap=50) == 50
    assert Schedule(10, 1.5).size(3, cap=23) == 23
    assert Schedule(10, 1.5).size(3, cap=24) == 23


def test_a_checkpoint_that_adds_no_sample_reuses_the_bound(g1, monkeypatch):
    # alpha this close to 1 repeats a sample size over about four
    # checkpoints: the 20 checkpoints up to the cap hold 6 sizes, and the
    # bound is evaluated once per size; xi still takes each checkpoint's
    # delta / 2^i
    bounds = []

    def counted(state, r):
        bounds.append((r, rademacher_bound(state, r)))
        return bounds[-1][1]

    monkeypatch.setattr("tempbc.progressive.rademacher_bound", counted)
    initial = initial_sample_size(0.01, 0.1)
    sizes = [min(Schedule(initial, 1.00001).size(i), initial + 5) for i in range(1, 21)]
    scores, report = progressive_estimate(
        g1, SH, 0.01, 0.1, 1.00001, Algorithm.OB, seed=0, iteration_cap=initial + 5
    )
    assert report.iterations == 20 and report.stopped_by is StopReason.ITERATION_CAP
    assert [r for r, _ in bounds] == sorted(set(sizes)) == list(range(initial, initial + 6))
    assert report.xi == stopping_xi(bounds[-1][1], initial + 5, 0.1 / 2**20)


def test_confidence_budgets_sum_below_delta():
    delta = 0.1
    assert sum(delta / 2**i for i in range(1, 60)) <= delta


# --- progressive pair sampling -----------------------------------------------

def test_progressive_ob_meets_guarantee_on_g1(g1):
    exact = exact_tbc(g1, SH)
    for seed in range(20):
        scores, report = progressive_estimate(g1, SH, 0.3, 0.1, 1.5, Algorithm.OB, seed)
        assert report.stopped_by is StopReason.BOUND_MET
        assert report.xi <= 0.3
        assert report.final_sample_size >= initial_sample_size(0.3, 0.1)
        assert np.max(np.abs(scores.values - exact.values)) <= 0.3


def test_progressive_running_estimate_matches_fixed_ob(g1):
    # the returned vector is the plain sample mean over the drawn pairs
    scores, report = progressive_estimate(g1, SH, 0.3, 0.1, 1.5, Algorithm.OB, seed=9)
    r = report.final_sample_size
    pairs = [draw_pair(substream(9, i), g1.n) for i in range(r)]
    fixed = ob_estimate(g1, SH, r, 9, pairs=pairs)
    assert np.allclose(scores.values, fixed.values, rtol=1e-10, atol=1e-12)


def test_progressive_scores_in_unit_interval(g1):
    for algo in (Algorithm.OB, Algorithm.TRK):
        scores, _ = progressive_estimate(g1, SH, 0.25, 0.1, 1.5, algo, seed=2)
        assert np.all(scores.values >= 0.0)
        assert np.all(scores.values <= 1.0)


def test_progressive_rejects_rtb(g1):
    with pytest.raises(ValueError):
        progressive_estimate(g1, SH, 0.3, 0.1, 1.5, Algorithm.RTB, seed=0)


def test_degenerate_graph_stops_at_first_checkpoint():
    graph = TemporalGraph(3, [], 0)
    scores, report = progressive_estimate(graph, SH, 0.3, 0.1, 1.5, Algorithm.OB, seed=0)
    s1 = initial_sample_size(0.3, 0.1)
    assert report.final_sample_size == s1
    assert report.iterations == 1
    assert report.stopped_by is StopReason.BOUND_MET
    assert np.all(scores.values == 0.0)
    assert report.xi == pytest.approx(stopping_xi(0.0, s1, 0.05), rel=1e-6)


def test_trk_cap_defaults_to_union_bound_size(g1):
    eps, delta = 0.2, 0.1
    cap = hoeffding_size(eps, delta, g1.n)
    scores, report = progressive_estimate(g1, SH, eps, delta, 1.5, Algorithm.TRK, seed=0)
    assert report.final_sample_size <= cap
    if report.stopped_by is StopReason.ITERATION_CAP:
        assert report.final_sample_size == cap
        assert report.xi > eps


def test_explicit_iteration_cap(g1):
    scores, report = progressive_estimate(
        g1, SH, 0.05, 0.1, 1.5, Algorithm.OB, seed=0, iteration_cap=50
    )
    assert report.final_sample_size == 50
    assert report.stopped_by is StopReason.ITERATION_CAP
    assert scores.n == g1.n


def test_progressive_is_independent_of_thread_count(monkeypatch):
    # two CPUs, so that two workers run on any box; at eps = 0.1 the first
    # checkpoint batch (350 samples) is cut into 8 chunks, so two workers
    # really share it; ob goes on to larger batches, trk stops at its
    # union-bound cap
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert len(chunk_ranges(initial_sample_size(0.1, 0.1), workers=2)) == 8
    graph = random_temporal_graph_large(77, n=60, m=240, max_time=30)
    for algo in (Algorithm.OB, Algorithm.TRK):
        runs = [
            progressive_estimate(graph, SH, 0.1, 0.1, 1.5, algo, 5, threads=threads)
            for threads in (1, 2)
        ]
        (serial, serial_stop), (fanned, fanned_stop) = runs
        assert serial.values.tobytes() == fanned.values.tobytes(), algo
        assert serial_stop == fanned_stop, algo


# --- source-sampling heuristic -----------------------------------------------

def test_prtb_stops_at_earliest_possible_sample():
    # per-sample node dependency is at most n - 2, so with c >= 2 a single
    # sample can never cross c * n; the earliest possible stop on a temporal
    # path over 7 nodes is ceil(14 / 5) = 3 head draws in a row
    g = load_edge_list("".join(f"{i} {i+1} {i+1}\n" for i in range(6)))
    seed = next(
        s
        for s in range(100_000)
        if all(draw_source(substream(s, i), g.n) == 0 for i in range(3))
    )
    scores, report = prtb_estimate(g, SH, 2.0, seed)
    assert report.final_sample_size == 3
    assert report.stopped_by is StopReason.BOUND_MET
    assert report.xi >= report.epsilon == 14.0


def test_prtb_stops_at_first_threshold_crossing(g1):
    scores, report = prtb_estimate(g1, SH, 2.0, seed=3, max_samples=5000)
    assert report.stopped_by is StopReason.BOUND_MET
    r = report.final_sample_size
    # replay the source stream: the running max crosses c*n exactly at r
    from fractions import Fraction

    from tempbc import full_tbfs

    totals: dict[int, Fraction] = {}
    for i in range(r):
        s = draw_source(substream(3, i), g1.n)
        for v, val in full_tbfs(g1, s, SH).dependency.items():
            totals[v] = totals.get(v, Fraction(0)) + val
        running_max = max(totals.values(), default=Fraction(0))
        if i < r - 1:
            assert running_max < 2.0 * g1.n
    assert running_max >= 2.0 * g1.n


def test_prtb_equals_rtb_on_same_sample_sequence(g1):
    for seed in (0, 1, 2, 7):
        scores, report = prtb_estimate(g1, SH, 2.0, seed, max_samples=200)
        fixed = rtb_estimate(g1, SH, report.final_sample_size, seed)
        assert np.array_equal(scores.values, fixed.values)


def test_prtb_cap(g1):
    scores, report = prtb_estimate(g1, SH, 2.0, seed=3, max_samples=3)
    assert report.final_sample_size == 3
    assert report.stopped_by is StopReason.ITERATION_CAP


def _first_index_with_all_sources(seed: int, n: int) -> int:
    seen: set[int] = set()
    i = 0
    while len(seen) < n:
        seen.add(draw_source(substream(seed, i), n))
        i += 1
    return i


@pytest.mark.parametrize(
    "text",
    [
        "1 2 3\n",
        # every 2-hop path is beaten by a direct edge, so no node is internal
        "0 1 1\n1 2 2\n0 2 3\n",
    ],
    ids=["one-edge", "direct-edges-win"],
)
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_prtb_stops_once_every_source_gave_zero_dependency(text, seed):
    # with every sh dependency zero no sample can reach c * n; the run stops
    # as soon as every node has been drawn as a source
    g = load_edge_list(text)
    scores, report = prtb_estimate(g, SH, 2.0, seed)
    r = _first_index_with_all_sources(seed, g.n)
    assert report.final_sample_size == report.iterations == r
    assert report.stopped_by is StopReason.ITERATION_CAP
    assert report.xi == 0.0
    assert scores.values.tolist() == [0.0] * g.n


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_prtb_with_a_nonzero_dependency_still_stops_by_bound(seed):
    # under pfm node 1 relays 0 -> 2 (arrival 2 beats the direct edge's 3):
    # source 0 gives it dependency 1 and every other source gives nothing,
    # so the run stops at the c * n = 6th draw of source 0
    g = load_edge_list("0 1 1\n1 2 2\n0 2 3\n")
    scores, report = prtb_estimate(g, PathOptimality.PREFIX_FOREMOST, 2.0, seed)
    draws_of_zero = 0
    r = 0
    while draws_of_zero < 6:
        draws_of_zero += draw_source(substream(seed, r), g.n) == 0
        r += 1
    assert report.stopped_by is StopReason.BOUND_MET
    assert report.final_sample_size == r
    assert report.xi == 6.0
    assert scores.values.tolist() == [0.0, 6 / (2 * r), 0.0]
    assert exact_tbc(g, PathOptimality.PREFIX_FOREMOST).values[1] == pytest.approx(1 / 6)


def test_prtb_validates(g1):
    with pytest.raises(ValueError):
        prtb_estimate(g1, SH, 1.5, 0)
    for cap in (0, -3):
        with pytest.raises(ValueError, match="sample cap"):
            prtb_estimate(g1, SH, 2.0, 0, max_samples=cap)


@pytest.mark.parametrize(
    "c, message",
    [(math.nan, "c must be finite"), (math.inf, "c must be finite"), (1e308, "threshold c \\* n overflow")],
    ids=["nan", "inf", "1e308"],
)
def test_prtb_refuses_a_threshold_that_is_not_finite(g1, monkeypatch, c, message):
    # refused before the first sample: no sample reaches an infinite or NaN
    # threshold, so without a cap the loop would never stop (1e308 is
    # finite, but c * n overflows)
    def no_sample(*args):
        raise AssertionError("prtb drew a sample")

    monkeypatch.setattr("tempbc.progressive.chunk_contributions", no_sample)
    with pytest.raises(ValueError, match=message):
        prtb_estimate(g1, SH, c, 0)


@pytest.mark.parametrize("algorithm", [Algorithm.OB, Algorithm.TRK])
@pytest.mark.parametrize("cap", [0, -3])
def test_iteration_cap_below_one_is_rejected(g1, algorithm, cap):
    with pytest.raises(ValueError, match="iteration cap"):
        progressive_estimate(g1, SH, 0.1, 0.1, 1.5, algorithm, seed=0, iteration_cap=cap)
