"""The set-operation bounds and reductions must match the reference exactly.

The exact searches call the minor-based lower bounds, the simplicial
reductions and the elimination undo stack at every node. Those run on
raw ``dict``/``set`` operations; the straightforward method-call
implementations they replaced are kept here as the oracle. Equal is not
enough for the seeded bounds: their tie-breaks draw from ``rng`` over
candidate lists in dict order and in the iteration order of neighbour
sets, so the fast versions must leave ``rng`` in the *same state* and
every adjacency dict and neighbour set in the *same iteration order* —
otherwise the searches' node counts change.

Graphs are generated with int, int-tuple and string labels and put
through random eliminate/restore histories first, so dict orders and set
layouts (dummies, resizes) look like the ones the searches see.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.ghw_lower import tw_ksc_width_remaining
from repro.bounds.lower import (
    degeneracy,
    gamma_r,
    minor_gamma_r,
    minor_min_width,
    treewidth_lower_bound,
)
from repro.hypergraphs.elimination_graph import EliminationGraph
from repro.hypergraphs.graph import Graph, complete_graph, vertex_sort_key
from repro.hypergraphs.hypergraph import Hypergraph
from repro.reductions.simplicial import (
    find_reduction_vertex,
    find_simplicial,
    find_strongly_almost_simplicial,
)
from repro.setcover.lower_bounds import k_set_cover_lower_bound

# ----------------------------------------------------------------------
# the reference implementations (method calls on Graph, no shortcuts)
# ----------------------------------------------------------------------


def ref_min_degree_vertex(graph, rng):
    lowest = min(graph.degree(v) for v in graph)
    candidates = [v for v in graph if graph.degree(v) == lowest]
    if rng is None:
        return min(candidates, key=repr)
    return rng.choice(candidates)


def ref_contract(graph, u, v):
    """Graph.contract as add_edge calls over the live N(v), then
    remove_vertex."""
    for neighbour in graph.adjacency()[v]:
        if neighbour != u:
            graph.add_edge(u, neighbour)
    graph.remove_vertex(v)


def ref_contract_into_min_neighbour(graph, vertex, rng):
    neighbours = graph.neighbours(vertex)
    if not neighbours:
        graph.remove_vertex(vertex)
        return
    lowest = min(graph.degree(u) for u in neighbours)
    candidates = [u for u in neighbours if graph.degree(u) == lowest]
    if rng is None:
        partner = min(candidates, key=repr)
    else:
        partner = rng.choice(candidates)
    ref_contract(graph, partner, vertex)


def ref_degeneracy(graph, rng=None):
    working = graph.copy()
    bound = 0
    while working.num_vertices() > 0:
        vertex = ref_min_degree_vertex(working, rng)
        bound = max(bound, working.degree(vertex))
        working.remove_vertex(vertex)
    return bound


def ref_minor_min_width(graph, rng=None):
    working = graph.copy()
    bound = 0
    while working.num_vertices() > 0:
        vertex = ref_min_degree_vertex(working, rng)
        bound = max(bound, working.degree(vertex))
        ref_contract_into_min_neighbour(working, vertex, rng)
    return bound


def ref_gamma_r(graph):
    vertices = sorted(graph.vertices(), key=lambda v: (graph.degree(v), repr(v)))
    n = len(vertices)
    if n == 0:
        return 0
    for index, vertex in enumerate(vertices):
        predecessors = vertices[:index]
        if any(not graph.has_edge(vertex, other) for other in predecessors):
            return graph.degree(vertex)
    return n - 1


def ref_minor_gamma_r(graph, rng=None):
    working = graph.copy()
    bound = 0
    while working.num_vertices() > 0:
        bound = max(bound, ref_gamma_r(working))
        if working.num_vertices() == 1:
            break
        vertex = ref_min_degree_vertex(working, rng)
        ref_contract_into_min_neighbour(working, vertex, rng)
    return bound


REF_METHODS = {
    "degeneracy": ref_degeneracy,
    "minor-min-width": ref_minor_min_width,
    "minor-gamma-r": ref_minor_gamma_r,
}


def ref_treewidth_lower_bound(graph, methods, rng):
    if graph.num_vertices() == 0:
        return 0
    return max((REF_METHODS[name](graph, rng) for name in methods), default=0)


def ref_is_clique(graph, vertices):
    vertex_list = list(vertices)
    return all(graph.has_edge(u, v) for u, v in combinations(vertex_list, 2))


def ref_is_almost_simplicial(graph, vertex):
    neighbours = list(graph.neighbours(vertex))
    if ref_is_clique(graph, neighbours):
        return True
    return any(
        ref_is_clique(graph, neighbours[:i] + neighbours[i + 1 :])
        for i in range(len(neighbours))
    )


def ref_find_simplicial(graph):
    for vertex in sorted(graph.vertices(), key=vertex_sort_key):
        if ref_is_clique(graph, graph.neighbours(vertex)):
            return vertex
    return None


def ref_find_strongly_almost_simplicial(graph, lower_bound):
    for vertex in sorted(graph.vertices(), key=vertex_sort_key):
        if graph.degree(vertex) > lower_bound:
            continue
        if ref_is_clique(graph, graph.neighbours(vertex)):
            continue
        if ref_is_almost_simplicial(graph, vertex):
            return vertex
    return None


def ref_find_reduction_vertex(graph, lower_bound, allow_almost_simplicial=True):
    simplicial = ref_find_simplicial(graph)
    if simplicial is not None:
        return simplicial
    if allow_almost_simplicial:
        return ref_find_strongly_almost_simplicial(graph, lower_bound)
    return None


class RefEliminationGraph:
    """The undo stack, built on Graph methods only."""

    def __init__(self, graph):
        self.graph = graph.copy()
        self.stack = []

    def eliminate(self, vertex):
        neighbours = self.graph.neighbours(vertex)
        fill = []
        neighbour_list = list(neighbours)
        for i, u in enumerate(neighbour_list):
            for v in neighbour_list[i + 1 :]:
                if not self.graph.has_edge(u, v):
                    self.graph.add_edge(u, v)
                    fill.append((u, v))
        self.graph.remove_vertex(vertex)
        self.stack.append((vertex, neighbours, fill))
        return neighbours

    def restore(self):
        vertex, neighbours, fill = self.stack.pop()
        for u, v in fill:
            self.graph.remove_edge(u, v)
        self.graph.add_vertex(vertex)
        for neighbour in neighbours:
            self.graph.add_edge(vertex, neighbour)
        return vertex


def ref_tw_ksc_width_remaining(hypergraph, remaining_graph, tw_methods, rng):
    vertices = remaining_graph.vertices()
    if not vertices:
        return 0
    restricted = hypergraph.restrict(vertices)
    if restricted.num_edges() == 0:
        return 0
    tw_bound = ref_treewidth_lower_bound(remaining_graph, tw_methods, rng)
    bound = k_set_cover_lower_bound(tw_bound + 1, restricted.edges())
    return max(1, bound)


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

class Twin:
    """A vertex whose ``repr`` it shares with other, unequal vertices: the
    ``repr`` and ``vertex_sort_key`` tie-breaks then fall back to
    iteration order."""

    def __init__(self, index: int) -> None:
        self.index = index

    def __repr__(self) -> str:
        return f"Twin({self.index % 3})"


LABELS = {
    "int": lambda i: i,
    # Multiples of 64 start probing at one slot in every set table of up
    # to 64 slots, so their iteration order depends on insertion history.
    "stride": lambda i: i * 64,
    "tuple": lambda i: (i % 3, i // 3),
    "str": lambda i: f"v{i}",
    "twin": Twin,
}


def layout(graph: Graph) -> list:
    """Every observable order: dict order and each set's iteration order."""
    return [(v, list(nbrs)) for v, nbrs in graph.adjacency().items()]


@st.composite
def histories(draw, max_vertices=16):
    """A graph plus a random eliminate/restore history replayed on both
    the undo stack under test and the reference one."""
    label = LABELS[draw(st.sampled_from(sorted(LABELS)))]
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    density = draw(st.sampled_from([0.2, 0.45, 0.7, 0.95]))
    layout_rng = random.Random(draw(st.integers(0, 2**16)))
    labels = [label(i) for i in range(n)]
    layout_rng.shuffle(labels)
    graph = Graph(vertices=labels)
    for u, v in combinations(labels, 2):
        if layout_rng.random() < density:
            graph.add_edge(u, v)
    # Grow some neighbour sets through temporary vertices, then delete
    # those: the sets keep their large tables and deleted slots, so a
    # copy of one iterates in another order than the set itself.
    temporary = [label(i) for i in range(n, n + 3 * n)]
    for hub in layout_rng.sample(labels, draw(st.integers(0, n))):
        for vertex in temporary:
            graph.add_edge(hub, vertex)
    for vertex in temporary:
        if vertex in graph:
            graph.remove_vertex(vertex)
    steps = draw(st.lists(st.integers(0, 2**16), min_size=n, max_size=3 * n))
    return graph, steps


def replay(graph: Graph, steps: list[int]) -> EliminationGraph:
    """Run ``steps`` on both undo stacks, checking layouts stay identical."""
    working = EliminationGraph(graph)
    reference = RefEliminationGraph(graph)
    assert layout(working.graph()) == layout(reference.graph)
    for step in steps:
        if step % 3 == 0 and reference.stack:
            assert working.restore() == reference.restore()
        else:
            remaining = list(reference.graph)
            if len(remaining) <= 1:
                continue
            vertex = remaining[step % len(remaining)]
            assert working.eliminate(vertex) == reference.eliminate(vertex)
        assert layout(working.graph()) == layout(reference.graph)
    return working


SEEDS = (0, 1, 7)


class RecordingRandom(random.Random):
    """Logs every candidate list a tie-break draws from, in order.

    Equal values and equal final states could hide two candidate lists in
    different orders (same length, same draws, another vertex picked);
    the log cannot."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.choices: list[list] = []

    def choice(self, seq):
        self.choices.append(list(seq))
        return super().choice(seq)


def assert_same_draws(fast, ref, graph: Graph) -> None:
    """Same value, same candidate lists and same ``rng`` state afterwards,
    for every seed and for the deterministic (``rng=None``) tie-break."""
    before = layout(graph)
    assert fast(graph, None) == ref(graph, None)
    for seed in SEEDS:
        rng_fast, rng_ref = RecordingRandom(seed), RecordingRandom(seed)
        assert fast(graph, rng_fast) == ref(graph, rng_ref)
        assert rng_fast.choices == rng_ref.choices
        assert rng_fast.getstate() == rng_ref.getstate()
    assert layout(graph) == before


# ----------------------------------------------------------------------
# the equivalence properties
# ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(histories())
def test_undo_stack_keeps_every_layout(history):
    graph, steps = history
    working = replay(graph, steps)
    working.restore_all()
    assert working.graph() == graph


def assert_contraction_chain_layouts(graph: Graph, picker: random.Random) -> None:
    """Contract random edges until none is left, as the minor bounds do
    (merged sets grow, then shrink as their members are contracted away),
    checking every layout against the reference contraction."""
    fast, reference = graph.copy(), graph.copy()
    while True:
        edges = [(u, v) for u, nbrs in reference.adjacency().items() for v in nbrs]
        if not edges:
            return
        u, v = picker.choice(edges)
        fast.contract(u, v)
        ref_contract(reference, u, v)
        assert layout(fast) == layout(reference)


@settings(max_examples=150, deadline=None)
@given(histories(), st.integers(0, 2**16))
def test_contract_keeps_every_layout(history, seed):
    assert_contraction_chain_layouts(replay(*history).graph(), random.Random(seed))


@pytest.mark.parametrize("label", ["stride", "tuple"])
def test_contract_keeps_every_layout_on_fixed_hashes(label):
    """A fixed sweep over labels whose hashes do not vary between runs:
    iterating a copy of N(v) instead of the live set shows here on every
    run, where the random examples above catch it only sometimes."""
    for n in range(4, 13):
        for seed in range(40):
            picker = random.Random(seed)
            graph = Graph(vertices=[LABELS[label](i) for i in range(n)])
            for u, v in combinations(list(graph), 2):
                if picker.random() < 0.5:
                    graph.add_edge(u, v)
            assert_contraction_chain_layouts(graph, picker)


@settings(max_examples=150, deadline=None)
@given(histories())
def test_minor_bounds_same_values_and_draws(history):
    graph = replay(*history).graph()
    assert_same_draws(minor_min_width, ref_minor_min_width, graph)
    assert_same_draws(minor_gamma_r, ref_minor_gamma_r, graph)
    assert_same_draws(degeneracy, ref_degeneracy, graph)
    methods = ("minor-min-width", "minor-gamma-r")
    assert_same_draws(
        lambda g, rng: treewidth_lower_bound(g, methods, rng),
        lambda g, rng: ref_treewidth_lower_bound(g, methods, rng),
        graph,
    )
    assert gamma_r(graph) == ref_gamma_r(graph)


@settings(max_examples=150, deadline=None)
@given(histories(), st.integers(0, 2**16))
def test_clique_tests_match(history, seed):
    graph = replay(*history).graph()
    for vertex in graph:
        assert graph.is_simplicial(vertex) == ref_is_clique(
            graph, graph.neighbours(vertex)
        )
        assert graph.is_almost_simplicial(vertex) == ref_is_almost_simplicial(
            graph, vertex
        )
    picker = random.Random(seed)
    pool = list(graph) + ["absent", (99, 99)]
    for _ in range(6):
        subset = [picker.choice(pool) for _ in range(picker.randint(0, 5))]
        assert graph.is_clique(subset) == ref_is_clique(graph, subset)
        assert graph.is_clique(iter(subset)) == ref_is_clique(graph, subset)


@settings(max_examples=150, deadline=None)
@given(histories())
def test_reductions_pick_the_same_vertex(history):
    graph = replay(*history).graph()
    assert find_simplicial(graph) == ref_find_simplicial(graph)
    for lower_bound in range(-1, graph.num_vertices() + 1):
        assert find_strongly_almost_simplicial(
            graph, lower_bound
        ) == ref_find_strongly_almost_simplicial(graph, lower_bound)
        for allow in (True, False):
            assert find_reduction_vertex(
                graph, lower_bound, allow
            ) == ref_find_reduction_vertex(graph, lower_bound, allow)


@settings(max_examples=100, deadline=None)
@given(histories(max_vertices=12), st.data())
def test_ghw_remainder_bound_same_values_and_draws(history, data):
    graph, steps = history
    vertices = list(graph)
    edges = {}
    for i in range(data.draw(st.integers(1, 6))):
        size = data.draw(st.integers(1, min(4, len(vertices))))
        edges[f"e{i}"] = data.draw(
            st.sets(st.sampled_from(vertices), min_size=size, max_size=size)
        )
    # Every vertex covered, as in a search (the graph stands in for the
    # primal graph): the restricted edges then offer enough slots.
    missing = set(vertices).difference(*edges.values())
    if missing:
        edges["fill"] = missing
    hypergraph = Hypergraph(edges)
    remaining = replay(graph, steps).graph()
    methods = ("minor-min-width", "minor-gamma-r")
    assert_same_draws(
        lambda g, rng: tw_ksc_width_remaining(hypergraph, g, tw_methods=methods, rng=rng),
        lambda g, rng: ref_tw_ksc_width_remaining(hypergraph, g, methods, rng),
        remaining,
    )


def test_ghw_remainder_bound_draws_nothing_when_no_edge_is_left():
    """An empty restriction returns 0 before the tw bound draws."""
    hypergraph = Hypergraph({"a": {1, 2}})
    remaining = Graph(vertices=[3, 4], edges=[(3, 4)])
    rng = random.Random(3)
    state = rng.getstate()
    assert tw_ksc_width_remaining(hypergraph, remaining, rng=rng) == 0
    assert rng.getstate() == state


# ----------------------------------------------------------------------
# gamma_R against its order-free definition; is_clique edge cases
# ----------------------------------------------------------------------


def brute_gamma_r(graph: Graph) -> int:
    """Min over non-adjacent pairs of the larger degree; n - 1 if complete."""
    pairs = [
        max(graph.degree(u), graph.degree(v))
        for u, v in combinations(list(graph), 2)
        if not graph.has_edge(u, v)
    ]
    return min(pairs, default=graph.num_vertices() - 1)


@settings(max_examples=200, deadline=None)
@given(histories())
def test_gamma_r_is_the_pairwise_definition(history):
    graph = replay(*history).graph()
    assert gamma_r(graph) == brute_gamma_r(graph)


def test_gamma_r_small_cases():
    assert gamma_r(Graph()) == 0
    assert gamma_r(Graph(vertices=["x"])) == 0
    assert gamma_r(complete_graph(5)) == 4
    assert gamma_r(Graph(vertices=[1, 2])) == 0


def test_is_clique_with_a_repeated_vertex_is_false():
    """A repeated vertex would have to be adjacent to itself, and graphs
    have no loops, so any iterable naming a vertex twice is no clique —
    even when the distinct vertices are pairwise adjacent."""
    graph = complete_graph(3)
    assert graph.is_clique([0, 1, 2])
    assert not graph.is_clique([0, 1, 1])
    assert not graph.is_clique([2, 2])
    assert graph.is_clique([2])
    assert graph.is_clique([])
    assert graph.is_clique(["absent"])
    assert not graph.is_clique([0, "absent"])
