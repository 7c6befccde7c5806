"""Deterministic graph search helpers over implicit graphs.

Nodes must be hashable and mutually comparable; roots and successors are
explored in sorted order, so that every returned witness is reproducible.
"""

from __future__ import annotations

from typing import Callable, Iterable


def lexleast_shortest_paths(roots: Iterable, successors: Callable,
                            stop: Callable | None = None) -> dict:
    """BFS recording, for every reachable node, its parent on the
    lexicographically least of its shortest paths (None for a root).

    Roots are sorted, every layer is expanded in the order it was generated
    and successors in sorted order, so nodes are claimed, and the returned
    dict is ordered, by (path length, path).  Nodes for which `stop` holds
    are recorded but not expanded.
    """
    parent: dict = dict.fromkeys(sorted(set(roots)))
    layer = list(parent)
    while layer:
        next_layer = []
        for node in layer:
            if stop is not None and stop(node):
                continue
            fresh = sorted(set(successors(node)).difference(parent))
            parent.update(dict.fromkeys(fresh, node))
            next_layer += fresh
        layer = next_layer
    return parent


def path_to(parent: dict, node) -> tuple:
    """The node path from a root to `node` in a parent map."""
    path = [node]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def lasso(parent: dict, region: set, successors: Callable):
    """A run that ends in a cycle inside `region`, a set of nodes of the
    parent map `parent` (from `lexleast_shortest_paths`).

    Returns (run, loop_start): the path in `parent` to the cycle's entry,
    then the cycle, so that run[loop_start] == run[-1]; or None when no
    cycle lies inside the region.  The cycle is the first that a
    three-colour iterative DFS inside the region closes, trying roots and
    successors in sorted order.
    """
    done: set = set()
    for root in sorted(region):
        if root in done:
            continue
        path = [root]
        index = {root: 0}  # the nodes on the path: active
        iters = [iter(sorted(region.intersection(successors(root))))]
        while path:
            nxt = next(iters[-1], None)
            if nxt is None:
                done.add(path[-1])
                del index[path.pop()]
                iters.pop()
            elif nxt in index:
                stem = path_to(parent, nxt)
                return stem + tuple(path[index[nxt] + 1:]) + (nxt,), len(stem) - 1
            elif nxt not in done:
                index[nxt] = len(path)
                path.append(nxt)
                iters.append(iter(sorted(region.intersection(successors(nxt)))))
    return None


def automaton(bound: int, first: Callable, step: Callable, labels: Iterable,
              flag: Callable):
    """A deterministic automaton over labels that a search carries in its
    nodes, its values numbered as the search reaches them.

    first(label) is the value at a root with that label, and step(value,
    label) the value after a step into a node with that label.  Returns
    (bound, start, row, flags): start(label) is the number of first(label),
    row(k) lists the numbers of the values after value k, one per label in
    `labels`, and flags[k] is flag(value k).  No more than `bound` values
    may be reachable, so that a search can pack a number into its node as
    ``node * bound + number``; none is built before the search meets it.
    """
    labels = tuple(labels)
    values: list = []
    numbers: dict = {}
    flags: list = []
    rows: dict[int, list[int]] = {}

    def number(value) -> int:
        k = numbers.get(value)
        if k is None:
            k = numbers[value] = len(values)
            values.append(value)
            flags.append(flag(value))
        return k

    def row(k: int) -> list[int]:
        found = rows.get(k)
        if found is None:
            found = rows[k] = [number(step(values[k], label)) for label in labels]
        return found

    return bound, lambda label: number(first(label)), row, flags


def nodes_on_cycles(nodes: Iterable, successors: Callable) -> set:
    """Nodes lying on a cycle of the subgraph induced by `nodes`: members of
    a strongly connected component with more than one node or with a
    self-loop.  Iterative Tarjan."""
    nodes = set(nodes)
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    cyclic: set = set()
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors(root)))]
        while work:
            node, succ = work[-1]
            for nxt in succ:
                if nxt not in nodes:
                    continue
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(successors(nxt))))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
                if nxt == node:
                    cyclic.add(node)
            else:
                work.pop()
                if work:
                    up = work[-1][0]
                    low[up] = min(low[up], low[node])
                if low[node] == index[node]:
                    component = []
                    while not component or component[-1] != node:
                        component.append(stack.pop())
                        on_stack.discard(component[-1])
                    if len(component) > 1:
                        cyclic.update(component)
    return cyclic
