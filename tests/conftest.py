from __future__ import annotations

import pytest

from helpers import make_g1, random_temporal_graph_large

from tempbc import PathOptimality, exact_tbc


@pytest.fixture(scope="session")
def g1():
    return make_g1()


@pytest.fixture(scope="session")
def synth200():
    """Fixed 200-node synthetic graph with its exact shortest-criterion scores."""
    graph = random_temporal_graph_large(12345, n=200, m=800, max_time=50)
    return graph, exact_tbc(graph, PathOptimality.SHORTEST)


@pytest.fixture(scope="session")
def ties():
    """60 nodes, 600 edges over 8 time labels: many pairs have several
    optimal paths and many nodes reappear at several hop layers."""
    return random_temporal_graph_large(12345, n=60, m=600, max_time=8)
