"""Sparse-router tests: the five-timestep advance invariant, the
private cluster step (a cluster is a tuple of trains), error behavior,
and end-to-end routing re-executed on the token simulator, one
timestep at a time for conservation, with the 20*(diam+k) timestep
cap."""

import pytest

from teleroute.execute import TokenState, apply_timestep, verify_schedule
from teleroute.graphs import (
    Permutation,
    bfs_distances,
    diameter,
    generate_graph,
    generate_permutation,
)
from teleroute.schedule import SwapLocal
from teleroute.sparse_routing import (
    Train,
    _step_clusters,
    advance_train,
    sparse_route,
)


def hide(g, state, vertices):
    apply_timestep(g, state, [SwapLocal(v, 0, 1) for v in vertices])


# ---------------------------------------------------------------------------
# advance_train
# ---------------------------------------------------------------------------

def test_advance_lone_train_is_five_timesteps():
    g = generate_graph("path", n=6)
    state = TokenState(g)
    hide(g, state, range(1, 6))
    steps, train = advance_train(g, state, Train((0,), 5))
    assert len(steps) == 5
    assert [len(s) for s in steps] == [0, 1, 1, 0, 1]
    assert train == Train((1,), 5)
    assert state.locate(0) == (1, 0)


def test_advance_three_token_train():
    g = generate_graph("path", n=6)
    state = TokenState(g)
    hide(g, state, (3, 4, 5))
    steps, train = advance_train(g, state, Train((0, 1, 2), 5))
    assert len(steps) == 5
    assert [len(s) for s in steps] == [1, 2, 2, 1, 2]
    assert train.vertices == (1, 2, 3)
    assert train.tail == 1 and train.head == 3
    assert [state.locate(t)[0] for t in (0, 1, 2)] == [1, 2, 3]
    # the train's parking slots are all clean again after a full round
    assert all(state.free_slot(v) == 1 for v in (0, 1, 2))
    steps, train = advance_train(g, state, train)
    assert len(steps) == 5
    assert train.vertices == (2, 3, 4)
    assert [state.locate(t)[0] for t in (0, 1, 2)] == [2, 3, 4]


def test_advance_even_length_train_uses_no_ancilla_ahead():
    g = generate_graph("path", n=6)
    state = TokenState(g)
    hide(g, state, (4, 5))
    steps, train = advance_train(g, state, Train((0, 1, 2, 3), 5))
    assert train.vertices == (1, 2, 3, 4)
    # ancilla ops only at odd train positions, never at the new head
    locals_ = [op for s in steps for op in s if isinstance(op, SwapLocal)]
    assert all(op.v in (1, 3) for op in locals_)


def test_advance_blocked_head_raises_without_mutation():
    g = generate_graph("path", n=4)
    state = TokenState(g)
    before = [state.data(v) for v in range(4)]
    with pytest.raises(ValueError, match="blocked"):
        advance_train(g, state, Train((0,), 3))
    assert [state.data(v) for v in range(4)] == before


def test_advance_missing_ancilla_raises_without_mutation():
    g = generate_graph("path", n=4, ancilla_budget=1)
    state = TokenState(g)
    hide(g, state, (1, 2, 3))  # the single ancilla at 1 is now occupied
    before = [state.data(v) for v in range(4)]
    with pytest.raises(ValueError, match="ancilla"):
        advance_train(g, state, Train((0,), 3))
    assert [state.data(v) for v in range(4)] == before


def test_advance_at_target_raises():
    g = generate_graph("path", n=3)
    state = TokenState(g)
    with pytest.raises(ValueError, match="target"):
        advance_train(g, state, Train((2,), 2))


# ---------------------------------------------------------------------------
# _step_clusters
# ---------------------------------------------------------------------------

def test_two_trains_gather_and_concatenate():
    g = generate_graph("path", n=7)
    state = TokenState(g)
    hide(g, state, (1, 2, 3, 4, 5))
    clusters = [(Train((0,), 3),), (Train((6,), 3),)]
    dist = bfs_distances(g, 3)
    rounds = 0
    while len(clusters) > 1:
        batch, clusters = _step_clusters(g, state, clusters, dist)
        assert len(batch) == 5
        rounds += 1
        assert rounds < 10
    assert rounds == 3
    (cluster,) = clusters
    assert [t.vertices for t in cluster] == [(4, 3)]
    assert state.locate(0) == (3, 0)
    assert state.locate(6) == (4, 0)


def test_lower_index_cluster_wins_vertex_conflicts():
    g = generate_graph("path", n=5)
    state = TokenState(g)
    hide(g, state, (0, 2, 4))
    clusters = [(Train((1,), 2),), (Train((3,), 2),)]
    batch, clusters = _step_clusters(g, state, clusters,
                                     bfs_distances(g, 2))
    # both trains want vertex 2; the first cluster advanced, the other waited
    assert state.locate(1) == (2, 0)
    assert state.locate(3) == (3, 0)
    assert len(clusters) == 1  # now adjacent, merged


# ---------------------------------------------------------------------------
# sparse_route end to end
# ---------------------------------------------------------------------------

SPARSE_CASES = [
    ("path", {"n": 15}),
    ("grid", {"n": 5, "d": 2}),
    ("wheel", {"n": 8}),
    ("hypercube", {"d": 4}),
    ("ladder", {"n": 4}),
    ("butterfly", {"r": 3}),
]


@pytest.mark.parametrize("kind,params", SPARSE_CASES)
def test_sparse_route_random(kind, params):
    g = generate_graph(kind, **params)
    diam = diameter(g)
    for seed in range(6):
        for k in (2, 4, 8):
            pi = generate_permutation("random", g, seed=seed, k=min(k, g.n))
            kk = len(pi.support())
            if kk == 0:
                continue
            sched = sparse_route(g, pi)
            assert verify_schedule(g, sched, pi)
            assert len(sched.timesteps) <= 20 * (diam + kk)


def test_sparse_path_endpoint_exchange():
    g = generate_graph("path", n=15)
    pi = Permutation.from_pairs(15, [(0, 14)])
    sched = sparse_route(g, pi)
    assert verify_schedule(g, sched, pi)
    assert len(sched.timesteps) <= 20 * (diameter(g) + 2)


def test_sparse_grid_seeded():
    g = generate_graph("grid", n=5, d=2)
    pi = generate_permutation("random", g, seed=7, k=4)
    sched = sparse_route(g, pi)
    assert verify_schedule(g, sched, pi)
    assert len(sched.timesteps) <= 20 * (diameter(g) + len(pi.support()))


def test_sparse_identity_is_empty():
    g = generate_graph("grid", n=5, d=2)
    sched = sparse_route(g, Permutation.identity(25))
    assert sched.depth() == 0
    assert sched.timesteps == []


def test_sparse_unhide_mirrors_hide():
    g = generate_graph("path", n=9)
    pi = Permutation.from_pairs(9, [(0, 8)])
    sched = sparse_route(g, pi)
    assert sched.timesteps[0] == sched.timesteps[-1]


def test_sparse_zero_budget_rejected():
    g = generate_graph("path", n=5, ancilla_budget=0)
    with pytest.raises(ValueError, match="ancilla"):
        sparse_route(g, Permutation.from_pairs(5, [(0, 4)]))


def test_sparse_budget_one_collision_raises():
    g = generate_graph("path", n=9, ancilla_budget=1)
    pi = Permutation.from_pairs(9, [(0, 8)])
    with pytest.raises(ValueError, match="ancilla"):
        sparse_route(g, pi)


def test_sparse_budget_two_suffices():
    g = generate_graph("path", n=9, ancilla_budget=2)
    pi = Permutation.from_pairs(9, [(0, 8)])
    assert verify_schedule(g, sparse_route(g, pi), pi)


def test_sparse_budget_one_full_support_ok():
    # with nothing hidden, one ancilla slot per vertex is enough
    g = generate_graph("path", n=4, ancilla_budget=1)
    pi = Permutation((3, 2, 1, 0))
    assert verify_schedule(g, sparse_route(g, pi), pi)


def test_sparse_token_conservation_every_timestep():
    g = generate_graph("wheel", n=8)
    pi = generate_permutation("random", g, seed=3, k=4)
    sched = sparse_route(g, pi)
    state = TokenState(g)
    for t, step in enumerate(sched.timesteps):
        apply_timestep(g, state, step, t)
        assert state.tokens() == list(range(g.n))
