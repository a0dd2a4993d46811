import pytest

from dhcolor import DirectedEdge


@pytest.fixture
def no_edge_records(monkeypatch):
    """Building a ``DirectedEdge`` raises, so the code under test must read
    hypergraphs' indexes alone.  Inputs and recorded outputs come from
    module-scoped fixtures, which pytest sets up before this one."""
    def refuse(self, tail, head):
        raise AssertionError("DirectedEdge built")

    monkeypatch.setattr(DirectedEdge, "__init__", refuse)
