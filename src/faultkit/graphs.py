"""Deterministic graph search helpers over implicit graphs.

Nodes must be hashable and mutually comparable; successors are explored
in sorted order, and roots in sorted order or, for `find_reachable_cycle`,
in the order the caller gives, so that every returned witness is
reproducible.
"""

from __future__ import annotations

from typing import Callable, Iterable


def find_reachable_cycle(roots: Iterable, successors: Callable):
    """Find a cycle reachable from the given roots.

    Returns (stem, loop) where stem is the node path from a root up to and
    including the loop entry, and loop is the cycle starting and ending at
    that entry (entry repeated at the end).  Returns None when the
    reachable subgraph is acyclic.  Three-color iterative DFS; roots are
    tried in the order given, successors in sorted order.
    """
    colors: dict = {}
    for root in roots:
        if colors.get(root) == "done":
            continue
        path = [root]
        iters = [iter(sorted(set(successors(root))))]
        colors[root] = "active"
        index = {root: 0}
        while path:
            try:
                nxt = next(iters[-1])
            except StopIteration:
                dead = path.pop()
                iters.pop()
                colors[dead] = "done"
                del index[dead]
                continue
            state = colors.get(nxt)
            if state == "active":
                entry = index[nxt]
                return path[: entry + 1], path[entry:] + [nxt]
            if state == "done":
                continue
            colors[nxt] = "active"
            index[nxt] = len(path)
            path.append(nxt)
            iters.append(iter(sorted(set(successors(nxt)))))
    return None


def lexleast_shortest_paths(roots: Iterable, successors: Callable,
                            key: Callable | None = None,
                            stop: Callable | None = None) -> dict:
    """BFS recording, for every reachable node, its parent on the
    lexicographically least of its shortest paths (None for a root).

    Nodes are ordered by `key` (the node itself when None), which must be
    injective.  Roots are sorted, every layer is expanded in the order it
    was generated and successors in sorted order, so nodes are claimed, and
    the returned dict is ordered, by (path length, path).  Nodes for which
    `stop` holds are recorded but not expanded.
    """
    parent: dict = dict.fromkeys(sorted(set(roots), key=key))
    layer = list(parent)
    while layer:
        next_layer = []
        for node in layer:
            if stop is not None and stop(node):
                continue
            fresh = sorted(set(successors(node)).difference(parent), key=key)
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
