"""The greedy teleport packer against a frozen reference copy.

The reference below is the packer as first written: hop lengths from
``shortest_path`` (a full BFS and a walk per hop), each round's load in
a dict copied on every fit attempt, and a FIFO BFS with a dict of
parents.  The library's packer computes the same thing more cheaply, so
on random connected graphs, budgets and permutations (long cycles that
need the chain fallback at budget 2 included) both must emit
byte-identical schedule JSON, and the schedule must verify.
"""

from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from teleroute.execute import verify_schedule
from teleroute.graphs import ArchGraph, Permutation, shortest_path
from teleroute.schedule import Schedule, SwapLocal, TeleRound, Transfer
from teleroute.tele_routing import greedy_schedule


# ---------------------------------------------------------------------------
# the reference packer (frozen; do not optimize)
# ---------------------------------------------------------------------------

def ref_load_aware_path(g, s, t, load, budget):
    if load.get(s, 0) + 1 > budget or load.get(t, 0) + 1 > budget:
        return None
    parent = {s: None}
    queue = deque([s])
    while queue and t not in parent:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w in parent:
                continue
            if w == t or load.get(w, 0) + 2 <= budget:
                parent[w] = v
                queue.append(w)
    if t not in parent:
        return None
    path = [t]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return tuple(path)


def ref_add_load(load, path):
    load[path[0]] = load.get(path[0], 0) + 1
    load[path[-1]] = load.get(path[-1], 0) + 1
    for v in path[1:-1]:
        load[v] = load.get(v, 0) + 2


def ref_fit_cycle(g, cyc, load, budget):
    trial = dict(load)
    paths = []
    for i in range(len(cyc)):
        p = ref_load_aware_path(g, cyc[i], cyc[(i + 1) % len(cyc)], trial,
                                budget)
        if p is None:
            return None
        ref_add_load(trial, p)
        paths.append(p)
    load.clear()
    load.update(trial)
    return paths


def ref_chain_timesteps(g, cyc, budget):
    m = len(cyc)
    for r in range(m):
        rot = cyc[r:] + cyc[:r]
        parked = {rot[0]: 1}
        paths = []
        for i in range(m - 1, 0, -1):
            p = ref_load_aware_path(g, rot[i], rot[(i + 1) % m],
                                    dict(parked), budget)
            if p is None:
                break
            paths.append(p)
        else:
            final = ref_load_aware_path(g, rot[0], rot[1], dict(parked),
                                        budget)
            if final is not None:
                park = SwapLocal(rot[0], 0, 1)
                steps = [[park]]
                steps.extend([TeleRound((Transfer(p),))] for p in paths)
                steps.append([park])
                steps.append([TeleRound((Transfer(final),))])
                steps.append([park])
                return steps
    raise RuntimeError(f"no rotation of cycle {cyc} can be chained")


def ref_greedy_schedule(g, pi, budget):
    def max_hop(cyc):
        return max(len(shortest_path(g, cyc[i], cyc[(i + 1) % len(cyc)])) - 1
                   for i in range(len(cyc)))

    cycles = sorted(pi.cycles(), key=lambda c: (-max_hop(c), c[0]))
    rounds = []
    chained = []
    for cyc in cycles:
        for transfers, load in rounds:
            paths = ref_fit_cycle(g, cyc, load, budget)
            if paths is not None:
                transfers.extend(Transfer(p) for p in paths)
                break
        else:
            load = {}
            paths = ref_fit_cycle(g, cyc, load, budget)
            if paths is not None:
                rounds.append(([Transfer(p) for p in paths], load))
            else:
                chained.append(cyc)
    timesteps = [[TeleRound(tuple(transfers))] for transfers, _ in rounds]
    for cyc in chained:
        timesteps.extend(ref_chain_timesteps(g, cyc, budget))
    return Schedule(timesteps)


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------

@st.composite
def instances(draw):
    """A connected graph on at most 40 vertices (a random tree plus
    extra edges), a packing budget in 2..6 and a permutation: uniform,
    one long cycle over a random subset of the vertices, or many short
    cycles (the case where rounds fill up and fits fail part way)."""
    n = draw(st.integers(2, 40))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)),
                              max_size=2 * n)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    budget = draw(st.integers(2, 6))
    g = ArchGraph(n, tuple(edges), ancilla_budget=budget)
    order = draw(st.permutations(range(n)))
    kind = draw(st.sampled_from(["uniform", "long", "short"]))
    if kind == "uniform":
        return g, Permutation(tuple(order)), budget
    image = list(range(n))
    i = 0
    while i < n - 1:
        k = (draw(st.integers(2, n - i)) if kind == "long"
             else min(draw(st.integers(2, 3)), n - i))
        for j in range(k):
            image[order[i + j]] = order[i + (j + 1) % k]
        i += k
        if kind == "long":
            break
    return g, Permutation(tuple(image)), budget


def _path_cycle(n, cyc):
    image = list(range(n))
    for i, v in enumerate(cyc):
        image[v] = cyc[(i + 1) % len(cyc)]
    return (ArchGraph(n, tuple((i, i + 1) for i in range(n - 1)),
                      ancilla_budget=2),
            Permutation(tuple(image)), 2)


# a tree where (1 2) joins the first round only if the failed fit of
# (3 4) there, which placed one hop through vertex 1, was taken back
_ROLLBACK = (ArchGraph(6, ((0, 1), (1, 2), (1, 3), (1, 4), (4, 5))),
             Permutation((5, 2, 1, 4, 3, 0)), 6)


@settings(max_examples=150, deadline=None)
@given(instances())
@example(_path_cycle(5, (0, 2, 4)))
@example(_path_cycle(9, (0, 4, 8, 2, 6)))
@example(_ROLLBACK)
def test_greedy_matches_reference(instance):
    g, pi, budget = instance
    got = greedy_schedule(g, pi, budget=budget)
    assert got.to_json(graph=g) == \
        ref_greedy_schedule(g, pi, budget).to_json(graph=g)
    assert verify_schedule(g, got, pi)


def test_reference_examples_reach_the_chain_fallback():
    # the explicit examples above must keep exercising the chain path
    for n, cyc in ((5, (0, 2, 4)), (9, (0, 4, 8, 2, 6))):
        g, pi, budget = _path_cycle(n, cyc)
        sched = ref_greedy_schedule(g, pi, budget)
        assert any(isinstance(op, SwapLocal)
                   for step in sched.timesteps for op in step)
