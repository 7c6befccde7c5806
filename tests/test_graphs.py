from hypothesis import given, settings, strategies as st

from faultkit.graphs import lasso, lexleast_shortest_paths, nodes_on_cycles, path_to

from .oracles import brute_force_cycle_nodes, brute_force_lexleast_paths

NODES = range(5)

digraphs = st.lists(st.lists(st.sampled_from(NODES), max_size=3, unique=True),
                    min_size=len(NODES), max_size=len(NODES)).map(
    lambda rows: dict(zip(NODES, rows)))


@given(digraphs,
       st.sets(st.sampled_from(NODES), min_size=1),
       st.sets(st.sampled_from(NODES)))
@settings(max_examples=150, deadline=None)
def test_lexleast_shortest_paths_match_brute_force(adjacency, roots, stop):
    parent = lexleast_shortest_paths(roots, adjacency.__getitem__,
                                     stop=stop.__contains__)
    expected = brute_force_lexleast_paths(roots, adjacency, stop=stop)
    assert {v: path_to(parent, v) for v in parent} == expected
    # discovery order is least-path order
    ranked = sorted(expected, key=lambda v: (len(expected[v]), expected[v]))
    assert list(parent) == ranked


@given(digraphs, st.sets(st.sampled_from(NODES)))
@settings(max_examples=150, deadline=None)
def test_nodes_on_cycles_match_brute_force(adjacency, region):
    induced = {v: [w for w in adjacency[v] if w in region] for v in region}
    assert nodes_on_cycles(region, adjacency.__getitem__) == \
        brute_force_cycle_nodes(induced)


@given(digraphs, st.sets(st.sampled_from(NODES), min_size=1), st.sets(st.sampled_from(NODES)))
@settings(max_examples=150, deadline=None)
def test_lasso_closes_inside_region(adjacency, roots, region):
    parent = lexleast_shortest_paths(roots, adjacency.__getitem__)
    region = region.intersection(parent)
    induced = {v: [w for w in adjacency[v] if w in region] for v in region}
    found = lasso(parent, sorted(region), adjacency.__getitem__)
    assert (found is None) == (not brute_force_cycle_nodes(induced))
    if found is not None:
        run, loop_start = found
        assert run[: loop_start + 1] == path_to(parent, run[loop_start])
        assert run[loop_start] == run[-1] and loop_start < len(run) - 1
        assert all(w in adjacency[v] for v, w in zip(run, run[1:]))
        assert set(run[loop_start:]) <= region


@given(digraphs,
       st.sets(st.sampled_from(NODES), min_size=1),
       st.sets(st.sampled_from(NODES)),
       st.sets(st.sampled_from(NODES)))
@settings(max_examples=150, deadline=None)
def test_goal_cuts_the_full_search_after_its_first_goal_node(adjacency, roots, stop, goal):
    full = list(lexleast_shortest_paths(roots, adjacency.__getitem__,
                                        stop=stop.__contains__).items())
    parent = lexleast_shortest_paths(roots, adjacency.__getitem__,
                                     stop=stop.__contains__, goal=goal.__contains__)
    hits = [i for i, (node, _) in enumerate(full) if node in goal]
    assert list(parent.items()) == (full[:hits[0] + 1] if hits else full)
    if goal.intersection(roots):
        # a goal root returns before any node is expanded
        assert set(parent) <= roots


def test_lasso_tries_region_roots_in_the_order_given():
    # two disjoint cycles, 1 -> 2 -> 1 and 3 -> 4 -> 3, both in the region;
    # the DFS closes the cycle of the first root the region lists
    adjacency = {0: [1, 3], 1: [2], 2: [1], 3: [4], 4: [3]}
    parent = lexleast_shortest_paths([0], adjacency.__getitem__)
    assert lasso(parent, [1, 2, 3, 4], adjacency.__getitem__) == ((0, 1, 2, 1), 1)
    assert lasso(parent, [3, 4, 1, 2], adjacency.__getitem__) == ((0, 3, 4, 3), 1)
