import pytest

from qgt.graphs import BipartiteGraph


@pytest.fixture
def csr_builds(monkeypatch):
    """The graphs whose left incidence is built during the test, in build order."""
    prop = vars(BipartiteGraph)["_left_csr"]
    built = []

    def build(graph, build=prop.func):
        built.append(graph)
        return build(graph)

    monkeypatch.setattr(prop, "func", build)
    return built
