from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import random_temporal_graph

from tempbc import PathOptimality, exact_tbc, hoeffding_size, ob_estimate, vc_size


def test_hoeffding_examples():
    assert hoeffding_size(0.1, 0.1, 100) == 381
    assert hoeffding_size(0.99, 0.1, 1) == 2


def test_hoeffding_doubling_n_adds_log2_term():
    for n in (10, 100, 1000):
        small = hoeffding_size(0.1, 0.1, n)
        large = hoeffding_size(0.1, 0.1, 2 * n)
        exact_small = math.log(2 * n / 0.1) / 0.02
        exact_large = exact_small + math.log(2) / 0.02
        assert small == math.ceil(exact_small)
        assert large == math.ceil(exact_large)


@pytest.mark.parametrize("eps", [1e-200, 1e-160])
def test_hoeffding_tiny_epsilon_is_a_value_error(eps):
    # 1e-200 squared underflows to 0; 1e-160 squared is subnormal and the
    # size overflows
    with pytest.raises(ValueError, match=f"epsilon {eps!r} is too small"):
        hoeffding_size(eps, 0.1, 5)


@pytest.mark.parametrize("eps", [1e-170, 1e-160])
def test_vc_tiny_epsilon_is_a_value_error(eps):
    with pytest.raises(ValueError, match=f"epsilon {eps!r} is too small"):
        vc_size(eps, 0.1, 3)


def test_vc_example():
    assert vc_size(0.05, 0.1, 34) == 1661


def test_vc_is_independent_of_n():
    # the formula has no node count at all; same vd, same answer
    assert vc_size(0.1, 0.1, 20) == vc_size(0.1, 0.1, 20)


def test_vc_bracket_steps_with_log2():
    base = vc_size(0.1, 0.1, 10)
    doubled = vc_size(0.1, 0.1, 18)  # floor(log2(vd-2)) goes 3 -> 4
    assert doubled - base == math.ceil(0.5 / 0.01 * (4 + 1 + math.log(10))) - math.ceil(
        0.5 / 0.01 * (3 + 1 + math.log(10))
    )


def test_vc_degenerate_below_three():
    expected = math.ceil(0.5 / 0.01 * (1 + math.log(10)))
    assert vc_size(0.1, 0.1, 2) == expected


def test_validation():
    for bad in [(0.0, 0.1, 10), (0.5, 0.0, 10), (0.5, 1.0, 10), (1.0, 0.1, 10)]:
        with pytest.raises(ValueError):
            hoeffding_size(*bad)
    with pytest.raises(ValueError):
        hoeffding_size(0.1, 0.1, 0)
    with pytest.raises(ValueError):
        vc_size(0.1, 0.1, 1)


def test_inverse_quadratic_scaling():
    for size in (hoeffding_size, lambda e, d, n: vc_size(e, d, 34)):
        for eps in (0.2, 0.1):
            big = size(eps / 2, 0.1, 64)
            small = size(eps, 0.1, 64)
            assert 4 * (1 - 1 / small) <= big / small <= 4 * (1 + 1 / small)


def test_hoeffding_size_is_empirically_valid():
    # desk-scale check: pair sampling at the union-bound size keeps the
    # supremum deviation within epsilon in well over (1 - delta) of runs
    eps, delta = 0.25, 0.1
    g = random_temporal_graph(5, max_n=7)
    exact = exact_tbc(g, PathOptimality.SHORTEST).values
    r = hoeffding_size(eps, delta, g.n)
    ok = 0
    runs = 200
    for seed in range(runs):
        est = ob_estimate(g, PathOptimality.SHORTEST, r, seed)
        if np.max(np.abs(est.values - exact)) <= eps:
            ok += 1
    assert ok >= runs * (1 - delta) - 10  # slack for the finite run count
