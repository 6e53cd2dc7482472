"""TaskGraph query order, pinned against a brute-force oracle.

The runtime releases successors in ``successors()`` order and
``to_dot`` lists edges in ``edges()`` order, so both sequences are part
of the graph's contract, not an implementation detail: they are
insertion order.  Predecessors follow the order in which ``add_task``
walks ``set(depends_on)``.  Every other query (descendants, critical
path, width) is checked against a naive recomputation from the edge
list.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compss.failures import OnFailure
from repro.compss.task_graph import TaskGraph, TaskNode, TaskState


def _node(task_id, state):
    node = TaskNode(task_id, f"f{task_id % 3}", lambda: None, (), {}, 0, (),
                    OnFailure.FAIL, 0)
    node.state = state
    return node


@st.composite
def graph_specs(draw):
    """``[(task_id, state, depends_on), ...]`` in insertion order.

    Ids are distinct but not increasing, so insertion order differs
    from id order.  Dependency lists draw from the whole id universe:
    they hold duplicates, the task's own id, ids inserted later and ids
    never inserted, all of which ``add_task`` must ignore.
    """
    ids = draw(st.lists(st.integers(0, 40), min_size=0, max_size=14, unique=True))
    universe = st.integers(0, 45)
    specs = []
    for task_id in ids:
        state = draw(st.sampled_from(list(TaskState)))
        deps = draw(st.lists(
            st.one_of(universe, st.just(task_id), st.sampled_from(ids)),
            max_size=6,
        ))
        specs.append((task_id, state, deps))
    return specs


def _build(specs):
    graph = TaskGraph()
    outstanding = {}
    for task_id, state, deps in specs:
        outstanding[task_id] = graph.add_task(_node(task_id, state), deps)
    return graph, outstanding


def _oracle(specs):
    """Edges, predecessor lists and outstanding lists, recomputed naively."""
    inserted, states = [], {}
    preds, outstanding = {}, {}
    for task_id, state, deps in specs:
        preds[task_id] = [d for d in set(deps) if d != task_id and d in states]
        outstanding[task_id] = [d for d in preds[task_id] if not states[d].terminal]
        inserted.append(task_id)
        states[task_id] = state
    succs = {n: [c for c in inserted if n in preds[c]] for n in inserted}
    edges = [(n, c) for n in inserted for c in succs[n]]
    return inserted, preds, succs, edges, outstanding


def _reachable(start, succs):
    seen, stack = set(), list(succs[start])
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            stack.extend(succs[n])
    return seen


def _longest_chain(nodes, succs):
    """Nodes on the longest path, by enumerating every path."""
    best = 0
    stack = [(n, 1) for n in nodes]
    while stack:
        n, length = stack.pop()
        best = max(best, length)
        stack.extend((c, length + 1) for c in succs[n])
    return best


def _widest_level(nodes, preds):
    """Largest count of nodes sharing a longest-distance-from-a-source."""
    def level(n):
        return max((level(p) + 1 for p in preds[n]), default=0)

    counts = {}
    for n in nodes:
        counts[level(n)] = counts.get(level(n), 0) + 1
    return max(counts.values(), default=0)


class TestTaskGraphOrder:
    @given(graph_specs())
    @settings(max_examples=200, deadline=None)
    def test_sequences_match_insertion_order(self, specs):
        graph, outstanding = _build(specs)
        inserted, preds, succs, edges, want_outstanding = _oracle(specs)
        assert graph.edges() == edges
        assert len(graph) == len(inserted)
        assert [t.task_id for t in graph.tasks()] == sorted(inserted)
        assert outstanding == want_outstanding
        for n in inserted:
            assert graph.successors(n) == succs[n]
            assert graph.predecessors(n) == preds[n]
        assert graph.is_dag()

    @given(graph_specs())
    @settings(max_examples=200, deadline=None)
    def test_derived_queries_match_brute_force(self, specs):
        graph, _ = _build(specs)
        inserted, preds, succs, _, _ = _oracle(specs)
        for n in inserted:
            assert graph.descendants(n) == _reachable(n, succs)
        assert graph.critical_path_length() == _longest_chain(inserted, succs)
        assert graph.max_width() == _widest_level(inserted, preds)

    def test_queries_do_not_change_the_graph(self):
        graph, _ = _build([(1, TaskState.PENDING, []),
                           (2, TaskState.PENDING, [1]),
                           (3, TaskState.PENDING, [1])])
        before = (graph.edges(), graph.to_dot())
        assert graph.max_width() == 2
        assert graph.critical_path_length() == 2
        assert (graph.edges(), graph.to_dot()) == before

    def test_empty_graph(self):
        graph = TaskGraph()
        assert graph.edges() == []
        assert graph.critical_path_length() == 0
        assert graph.max_width() == 0
        assert graph.is_dag()
