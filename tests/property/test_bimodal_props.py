"""Bimodal placement's max-flow vertex cover vs brute force and networkx.

König's theorem says the max-flow solution is *optimal* on bipartite
graphs; verify :func:`repro.core.bimodal.min_weight_cover` against
exhaustive enumeration on random small instances, and its partition
against networkx's ``minimum_cut`` on the same flow network.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bimodal import min_weight_cover

ROOT = Path(__file__).resolve().parents[2]


def _min_cover_flow(edges, lup_weights, bound_weights):
    chosen_lups, chosen_bounds = min_weight_cover(
        lup_weights, bound_weights, edges
    )
    cost = sum(lup_weights[l] for l in chosen_lups) + sum(
        bound_weights[b] for b in chosen_bounds
    )
    return cost, chosen_lups, chosen_bounds


def _min_cover_networkx(edges, lup_weights, bound_weights):
    """The construction the cover replaced, solved by networkx."""
    nx = pytest.importorskip("networkx")
    graph = nx.DiGraph()
    source, sink = "S", "T"
    for l, w in lup_weights.items():
        graph.add_edge(source, ("lup", l), capacity=w)
    for b, w in bound_weights.items():
        graph.add_edge(("bound", b), sink, capacity=w)
    for l, b in edges:
        graph.add_edge(("lup", l), ("bound", b), capacity=float("inf"))
    _, (s_side, t_side) = nx.minimum_cut(graph, source, sink)
    chosen_lups = {l for l in lup_weights if ("lup", l) in t_side}
    chosen_bounds = {b for b in bound_weights if ("bound", b) in s_side}
    return chosen_lups, chosen_bounds


def _min_cover_brute(edges, lup_weights, bound_weights):
    lups = sorted(lup_weights)
    bounds = sorted(bound_weights)
    best = None
    for l_mask in itertools.product((0, 1), repeat=len(lups)):
        picked_l = {l for l, bit in zip(lups, l_mask) if bit}
        for b_mask in itertools.product((0, 1), repeat=len(bounds)):
            picked_b = {b for b, bit in zip(bounds, b_mask) if bit}
            if all(l in picked_l or b in picked_b for l, b in edges):
                cost = sum(lup_weights[l] for l in picked_l) + sum(
                    bound_weights[b] for b in picked_b
                )
                if best is None or cost < best:
                    best = cost
    return best


@st.composite
def bipartite_instances(draw, max_side=4, weights=st.integers(1, 16)):
    n_l = draw(st.integers(1, max_side))
    n_b = draw(st.integers(1, max_side))
    lup_weights = {f"L{i}": draw(weights) for i in range(n_l)}
    bound_weights = {f"B{i}": draw(weights) for i in range(n_b)}
    all_edges = [(l, b) for l in lup_weights for b in bound_weights]
    k = draw(st.integers(1, len(all_edges)))
    edges = draw(
        st.lists(st.sampled_from(all_edges), min_size=k, max_size=k,
                 unique=True)
    )
    return edges, lup_weights, bound_weights


#: the cost model's weights: powers of the cover base, so ties are common
POWER_OF_TWO = st.integers(0, 4).map(lambda depth: 2 ** depth)


@settings(max_examples=120, deadline=None)
@given(instance=bipartite_instances())
def test_flow_cover_is_optimal(instance):
    edges, lup_weights, bound_weights = instance
    flow_cost, chosen_l, chosen_b = _min_cover_flow(
        edges, lup_weights, bound_weights
    )
    # the extracted vertex set is a valid cover of the optimal cost (König)
    assert all(l in chosen_l or b in chosen_b for l, b in edges)
    assert flow_cost == _min_cover_brute(edges, lup_weights, bound_weights)


@settings(max_examples=300, deadline=None)
@given(
    instance=st.one_of(
        bipartite_instances(max_side=7),
        bipartite_instances(max_side=7, weights=POWER_OF_TWO),
    )
)
def test_cover_is_the_networkx_min_cut_partition(instance):
    """The same chosen LUPs and boundaries as networkx's ``minimum_cut``,
    ties included: the sink side of a min cut does not depend on which
    maximum flow found it."""
    edges, lup_weights, bound_weights = instance
    assert min_weight_cover(
        lup_weights, bound_weights, edges
    ) == _min_cover_networkx(edges, lup_weights, bound_weights)


def test_paper_figure3_shape():
    """A Figure-3-like instance: hoisting beats per-LUP placement when the
    boundary is cheaper than the sum of deep-loop LUPs."""
    edges = [("L2", "RB3"), ("L3", "RB3")]
    cost, chosen_l, chosen_b = _min_cover_flow(
        edges, {"L2": 4, "L3": 2}, {"RB3": 1}
    )
    assert cost == 1
    assert chosen_b == {"RB3"} and chosen_l == set()


def test_penny_compile_does_not_import_networkx():
    """Importing the package and compiling a kernel under Penny leaves
    networkx unimported: it is a test-only dependency."""
    script = (
        "import sys\n"
        "import repro\n"
        "from repro.core.pipeline import PennyCompiler\n"
        f"text = open({str(ROOT / 'examples' / 'vecadd.ptx')!r}).read()\n"
        "PennyCompiler().compile(repro.parse_kernel(text))\n"
        "print('networkx' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
