"""Deterministic graph search helpers over implicit graphs.

Nodes must be hashable and mutually comparable; roots and successors are
explored in a fixed order, so that every returned witness is reproducible.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence


def lexleast_shortest_paths(roots: Iterable, successors: Callable,
                            stop: Callable | None = None,
                            goal: Callable | None = None) -> dict:
    """BFS recording, for every reachable node, its parent on the
    lexicographically least of its shortest paths (None for a root).

    Roots are sorted, every layer is expanded in the order it was generated
    and successors in sorted order, so nodes are claimed, and the returned
    dict is ordered, by (path length, path).  Nodes for which `stop` holds
    are recorded but not expanded.  A successor already claimed is dropped
    before the rest are sorted, so a node with no fresh successor costs one
    membership test per successor.

    With `goal`, the search returns as soon as it claims a node for which
    `goal` holds: that node is then the last of the dict, which is the full
    search's dict cut after its first goal node, since every node claimed
    before it is claimed, with the same parent, either way.
    """
    roots = sorted(set(roots))
    hit = _first_hit(goal, roots)
    if hit is not None:
        return dict.fromkeys(roots[:hit + 1])
    parent: dict = dict.fromkeys(roots)
    layer = roots
    while layer:
        next_layer = []
        for node in layer:
            if stop is not None and stop(node):
                continue
            fresh = {q for q in successors(node) if q not in parent}
            if not fresh:
                continue
            fresh = sorted(fresh)
            hit = _first_hit(goal, fresh)
            if hit is not None:
                parent.update(dict.fromkeys(fresh[:hit + 1], node))
                return parent
            parent.update(dict.fromkeys(fresh, node))
            next_layer += fresh
        layer = next_layer
    return parent


def _first_hit(goal: Callable | None, nodes: list) -> int | None:
    """The index of the first of `nodes` for which `goal` holds, if any."""
    if goal is not None:
        for i, node in enumerate(nodes):
            if goal(node):
                return i
    return None


def path_to(parent: dict, node) -> tuple:
    """The node path from a root to `node` in a parent map."""
    path = [node]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def lasso(parent: dict, roots: Sequence, inside: Callable, successors: Callable):
    """A run that ends in a cycle inside a region of the parent map `parent`
    (from `lexleast_shortest_paths`, run to completion): `inside` tells the
    nodes of the region, and `roots` lists them all.

    Returns (run, loop_start): the path in `parent` to the cycle's entry,
    then the cycle, so that run[loop_start] == run[-1]; or None when no
    cycle lies inside the region.  The cycle is the first that a
    three-colour iterative DFS inside the region closes, trying roots in
    the order `roots` gives them and successors in sorted order.  Every
    successor of a node of `parent` is in `parent`, so `inside` alone
    keeps the DFS in the region.
    """
    done: set = set()
    for root in roots:
        if root in done:
            continue
        path = [root]
        index = {root: 0}  # the nodes on the path: active
        iters = [iter(sorted(filter(inside, successors(root))))]
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
                iters.append(iter(sorted(filter(inside, successors(nxt)))))
    return None


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
