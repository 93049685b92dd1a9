from __future__ import annotations

import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from helpers import weighted_kendall_reference

from tempbc import PathOptimality, ScoreVector, compare, weighted_kendall
from tempbc.cli import main
from tempbc.evaluation import _ranks, top_k_nodes


def vec(values, opt=PathOptimality.SHORTEST):
    return ScoreVector(opt, np.array(values, dtype=np.float64))


def test_identity_comparison():
    x = vec([0.4, 0.3, 0.2, 0.1])
    report = compare(x, vec([0.4, 0.3, 0.2, 0.1]), k=3)
    assert report.sup_deviation == 0.0
    assert report.mse == 0.0
    assert report.weighted_kendall == 1.0
    assert report.topk_intersection == 3


def test_reversed_ranking_is_minus_one():
    x = vec([0.4, 0.3, 0.2, 0.1])
    y = vec([0.1, 0.2, 0.3, 0.4])
    assert compare(x, y, k=2).weighted_kendall == -1.0


def test_four_element_example():
    x = vec([0.4, 0.3, 0.2, 0.1])
    y = vec([0.4, 0.2, 0.3, 0.1])
    report = compare(x, y, k=2)
    assert report.sup_deviation == pytest.approx(0.1)
    assert report.mse == pytest.approx(0.005)
    assert report.topk_intersection == 1
    # hand computation with hyperbolic additive weights, both projections
    assert report.weighted_kendall == pytest.approx(float(Fraction(11, 15)))
    ref = scipy.stats.weightedtau(x.values, y.values, rank=_ranks(x.values)).statistic
    ref += scipy.stats.weightedtau(x.values, y.values, rank=_ranks(y.values)).statistic
    assert report.weighted_kendall == pytest.approx(ref / 2)


@pytest.mark.parametrize("seed", range(20))
def test_tau_agrees_with_independent_implementation(seed):
    # tie-free random vectors: same additive hyperbolic weighting in scipy
    rng = np.random.default_rng(seed)
    x = rng.permutation(30).astype(np.float64)
    y = x + rng.normal(0, 5, size=30)
    mine = weighted_kendall(x, y)
    ref = 0.5 * (
        scipy.stats.weightedtau(x, y, rank=_ranks(x)).statistic
        + scipy.stats.weightedtau(x, y, rank=_ranks(y)).statistic
    )
    assert mine == pytest.approx(ref, rel=1e-12)


def test_tau_invariant_under_monotone_transform():
    rng = np.random.default_rng(7)
    x = rng.random(25)
    y = rng.random(25)
    base = weighted_kendall(x, y)
    assert weighted_kendall(np.exp(3 * x), y) == pytest.approx(base)
    assert weighted_kendall(x, y**3) == pytest.approx(base)


def test_sup_and_mse_are_symmetric_and_bounded():
    rng = np.random.default_rng(3)
    x, y = vec(rng.random(40)), vec(rng.random(40))
    a = compare(x, y, k=5)
    b = compare(y, x, k=5)
    assert a.sup_deviation == b.sup_deviation
    assert a.mse == b.mse
    assert a.mse <= a.sup_deviation**2


def test_topk_invariant_under_positive_rescaling():
    rng = np.random.default_rng(9)
    x = vec(rng.random(20))
    y_values = rng.random(20)
    base = compare(x, vec(y_values), k=6).topk_intersection
    scaled = compare(x, vec(y_values * 17.5), k=6).topk_intersection
    assert base == scaled


def test_topk_ties_break_by_node_id():
    scores = np.array([0.5, 0.5, 0.5, 0.1])
    assert top_k_nodes(scores, 2) == [0, 1]


def test_all_tied_identity_is_one():
    x = vec([0.0, 0.0, 0.0])
    assert compare(x, vec([0.0, 0.0, 0.0]), k=1).weighted_kendall == 1.0


def test_validation():
    x = vec([0.1, 0.2])
    with pytest.raises(ValueError):
        compare(x, vec([0.1, 0.2, 0.3]), k=1)
    with pytest.raises(ValueError):
        compare(x, vec([0.1, 0.2], opt=PathOptimality.PREFIX_FOREMOST), k=1)
    with pytest.raises(ValueError):
        compare(x, vec([0.1, 0.2]), k=0)


def test_report_holds_the_metrics_alone():
    # the stop report carries a run's sample size; a score vector and its
    # comparison carry none
    report = compare(vec([0.1, 0.2]), vec([0.1, 0.2]), k=1)
    assert report._fields == ("sup_deviation", "mse", "weighted_kendall", "topk_intersection", "k")
    assert not hasattr(vec([0.1, 0.2]), "sample_size")


def _seeded_pair(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two correlated vectors of up to 300 entries; odd seeds draw them from
    a handful of levels, so that most pairs are tied in x, in y or in both."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 301))
    if seed % 2:
        x = rng.integers(0, 2 + seed % 6, n).astype(np.float64)
        y = np.where(rng.random(n) < 0.5, x, rng.integers(0, 2 + seed % 4, n))
        return x, y.astype(np.float64)
    x = rng.random(n)
    return x, x + rng.normal(0, 0.3, n)


@pytest.mark.parametrize("chunk", range(4))
def test_tau_agrees_with_the_pair_sum_definition(chunk):
    for seed in range(100 * chunk, 100 * chunk + 100):
        x, y = _seeded_pair(seed)
        assert abs(weighted_kendall(x, y) - weighted_kendall_reference(x, y)) <= 1e-12, seed


@pytest.mark.parametrize("x, y", [
    ([0.5] * 5, [0.5] * 5),
    ([0.5] * 5, [0.1, 0.2, 0.3, 0.4, 0.5]),
    ([0.1, 0.2, 0.3, 0.4, 0.5], [0.0] * 5),
    ([0.0, -0.0, 0.0], [1.0, 2.0, 3.0]),
    ([0.3, 0.1], [0.3, 0.1]),
], ids=["all-tied", "x-tied", "y-tied", "signed-zeros", "two-nodes"])
def test_tau_on_tied_sides_equals_the_pair_sum_definition(x, y):
    assert weighted_kendall(x, y) == weighted_kendall_reference(x, y)


def test_compare_of_a_hundred_thousand_nodes_stays_in_linear_memory(tmp_path):
    draw = random.Random(5)
    exact, approx = tmp_path / "exact.csv", tmp_path / "approx.csv"
    scores = [draw.random() for _ in range(100_000)]
    ScoreVector(None, scores).write_csv(exact)
    ScoreVector(None, [v + draw.gauss(0, 0.05) for v in scores]).write_csv(approx)
    del scores
    tracemalloc.start()
    try:
        code = main(["compare", str(exact), str(approx), "--out", str(tmp_path / "report.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 64 * 2**20
    assert 0.5 < json.loads((tmp_path / "report.json").read_text())["evaluation"]["weighted_kendall"] < 1
