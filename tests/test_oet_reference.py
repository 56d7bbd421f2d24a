"""Odd-even transposition against a frozen reference copy.

The reference below is the loop as first written: before every phase it
scans the whole array for a position whose token is not yet at its rank
(O(m) per phase, O(m^2) per call), then collects the phase's swaps and
applies them.  The library keeps a running count of misplaced positions
instead, so on random vertex orders, token placements and rank maps
(permutations, and arbitrary maps that never sort into place) both must
emit the same steps, leave the same ``token_at`` behind, and fail the
same way when the sort cannot finish.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from teleroute.schedule import SwapEdge
from teleroute.swap_routing import _oet_timesteps


# ---------------------------------------------------------------------------
# the reference (frozen; do not optimize)
# ---------------------------------------------------------------------------

def ref_oet_timesteps(order, rank_of_token, token_at):
    m = len(order)
    arr = [rank_of_token(token_at[v]) for v in order]
    steps = []
    for phase in range(m + 1):
        if all(arr[i] == i for i in range(m)):
            break
        swaps = []
        for i in range(phase % 2, m - 1, 2):
            if arr[i] > arr[i + 1]:
                swaps.append((i, i + 1))
        if swaps:
            steps.append([SwapEdge(order[i], order[j]) for i, j in swaps])
            for i, j in swaps:
                arr[i], arr[j] = arr[j], arr[i]
                u, v = order[i], order[j]
                token_at[u], token_at[v] = token_at[v], token_at[u]
    else:
        raise AssertionError("transposition sort failed to converge")
    return steps


def outcome(fn, order, ranks, token_at):
    """(steps or the failure text, final token_at) of one run on copies."""
    token_at = dict(token_at)
    try:
        result = fn(list(order), ranks.__getitem__, token_at)
    except AssertionError as e:
        result = str(e)
    return result, token_at


@st.composite
def instances(draw):
    """A vertex order with arbitrary labels, a placement of tokens on
    it, and each token's rank: a permutation of 0..m-1 (the sort always
    finishes) or, now and then, any small integers (duplicates and
    out-of-range ranks, so the sort may never reach the identity)."""
    order = draw(st.lists(st.integers(0, 200), unique=True, max_size=40))
    tokens = draw(st.permutations(order))
    token_at = dict(zip(order, tokens))
    if draw(st.integers(0, 4)) == 0:
        ranks = draw(st.lists(st.integers(-1, len(order)),
                              min_size=len(order), max_size=len(order)))
    else:
        ranks = draw(st.permutations(range(len(order))))
    return order, dict(zip(tokens, ranks)), token_at


@settings(max_examples=300, deadline=None)
@given(instances())
@example(([], {}, {}))
@example((list(range(64)), {t: 63 - t for t in range(64)},
          {v: v for v in range(64)}))
@example(([5, 2, 9], {5: 0, 2: 0, 9: 2}, {5: 5, 2: 2, 9: 9}))
def test_oet_matches_reference(instance):
    order, ranks, token_at = instance
    assert (outcome(_oet_timesteps, order, ranks, token_at)
            == outcome(ref_oet_timesteps, order, ranks, token_at))
