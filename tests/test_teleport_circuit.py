"""Layered Clifford circuits: teleportation blocks and schedule export."""

import itertools
import random

import numpy as np
import pytest

from teleroute.execute import apply_schedule
from teleroute.graphs import ArchGraph, Permutation, generate_graph, generate_permutation
from teleroute.schedule import Schedule, SwapEdge, SwapLocal, TeleRound, Transfer
from teleroute.stabilizer import Tableau
from teleroute.swap_routing import route_generic
from teleroute.tele_routing import greedy_schedule, ladder_schedule
from teleroute.teleport_circuit import (
    CliffordCircuit,
    Gate,
    emit_circuit,
    emit_teleport_circuit,
    verify_teleportation,
)


# -- gate and circuit validation ---------------------------------------------

def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("toffoli", (0, 1, 2))
    with pytest.raises(ValueError):
        Gate("cnot", (1,))
    with pytest.raises(ValueError):
        Gate("cnot", (2, 2))
    with pytest.raises(ValueError):
        Gate("h", (0,), record=1)
    with pytest.raises(ValueError):
        Gate("measure", (0,))
    with pytest.raises(ValueError):
        Gate("h", (0,), controls=(1,))
    with pytest.raises(ValueError):
        Gate("parity_x", (0,))


def test_circuit_validation():
    c = CliffordCircuit(num_qubits=2, num_records=1)
    c.layers.append([Gate("h", (5,))])
    with pytest.raises(ValueError, match="out of range"):
        c.validate()

    c = CliffordCircuit(num_qubits=2)
    c.layers.append([Gate("h", (0,)), Gate("s", (0,))])
    with pytest.raises(ValueError, match="used twice"):
        c.validate()

    c = CliffordCircuit(num_qubits=1, num_records=1)
    c.layers.append([Gate("measure", (0,), record=3)])
    with pytest.raises(ValueError, match="out of range"):
        c.validate()

    c = CliffordCircuit(num_qubits=2, num_records=1)
    c.layers.append([Gate("measure", (0,), record=0)])
    c.layers.append([Gate("measure", (1,), record=0)])
    with pytest.raises(ValueError, match="written twice"):
        c.validate()

    c = CliffordCircuit(num_qubits=2, num_records=1)
    c.layers.append([Gate("parity_x", (1,), controls=(0,))])
    c.layers.append([Gate("measure", (0,), record=0)])
    with pytest.raises(ValueError, match="before assignment"):
        c.validate()


def test_run_forced_exhaustion_and_leftover():
    c = emit_teleport_circuit(1)
    with pytest.raises(ValueError, match="exhausted"):
        c.run(forced=[0])
    tab, recs = c.run(forced=[0, 1, 1])  # one spare bit is fine
    assert recs == [0, 1]


def test_run_default_is_deterministic():
    c = emit_teleport_circuit(2)
    _, r1 = c.run()
    _, r2 = c.run()
    assert r1 == r2


def test_json_is_canonical():
    a = emit_teleport_circuit(3).to_json()
    b = emit_teleport_circuit(3).to_json()
    assert a == b
    assert " " not in a


# -- the teleportation block -------------------------------------------------

def test_teleport_rejects_zero_hops():
    with pytest.raises(ValueError):
        emit_teleport_circuit(0)


def test_layer_count_is_constant():
    counts = {len(emit_teleport_circuit(d).layers)
              for d in list(range(1, 13)) + [40]}
    assert counts == {7}


def test_sizes_scale_with_hops():
    for d in (1, 2, 5, 9):
        c = emit_teleport_circuit(d)
        assert c.num_qubits == 2 * d + 1
        assert c.num_records == 2 * d
        measures = [g for layer in c.layers for g in layer
                    if g.kind == "measure"]
        assert sorted(g.record for g in measures) == list(range(2 * d))


def test_single_hop_structure():
    c = emit_teleport_circuit(1)
    kinds = [[g.kind for g in layer] for layer in c.layers]
    assert kinds == [["h"], ["cnot"], ["cnot"], ["h"],
                     ["measure", "measure"], ["parity_x"], ["parity_z"]]
    assert c.layers[1][0].qubits == (1, 2)
    assert c.layers[2][0].qubits == (0, 1)
    assert c.layers[5][0].qubits == (2,)
    assert c.layers[6][0].qubits == (2,)


def test_correction_control_sets():
    for d in (2, 4, 7):
        c = emit_teleport_circuit(d)
        px = [g for layer in c.layers for g in layer if g.kind == "parity_x"]
        pz = [g for layer in c.layers for g in layer if g.kind == "parity_z"]
        assert len(px) == len(pz) == 1
        assert px[0].controls == tuple(range(1, 2 * d, 2))
        assert pz[0].controls == tuple(range(0, 2 * d, 2))


def test_teleportation_verifies():
    for d in (1, 2, 3, 4, 6, 10):
        assert verify_teleportation(emit_teleport_circuit(d), d)


def test_dropped_corrections_fail():
    c = emit_teleport_circuit(2)
    c.layers = c.layers[:-1]  # no Z fix
    assert not verify_teleportation(c, 2)

    c = emit_teleport_circuit(2)
    c.layers = c.layers[:-2] + c.layers[-1:]  # no X fix
    assert not verify_teleportation(c, 2)

    c = emit_teleport_circuit(7)
    c.layers = c.layers[:-1]
    assert not verify_teleportation(c, 7)


def test_crosswired_corrections_fail():
    c = emit_teleport_circuit(3)
    px = c.layers[-2][0]
    pz = c.layers[-1][0]
    c.layers[-2] = [Gate("parity_x", px.qubits, controls=pz.controls)]
    c.layers[-1] = [Gate("parity_z", pz.qubits, controls=px.controls)]
    assert not verify_teleportation(c, 3)


# -- whole-schedule export ----------------------------------------------------

def random_measurements(c, tab):
    """How many measurements of ``c`` come out random when it runs on
    ``tab``; the count is the same on every branch."""
    fed = []

    def zeros():
        while True:
            fed.append(0)
            yield 0

    c.run(tab, forced=zeros())
    return len(fed)


def branch_vectors(bits):
    """One column per branch: all of them up to 16 random
    measurements, else 64 seeded ones."""
    if bits <= 16:
        return np.array(list(itertools.product((0, 1), repeat=bits)),
                        dtype=np.uint8).T
    rng = random.Random(0)
    return np.array([[rng.randrange(2) for _ in range(64)]
                     for _ in range(bits)], dtype=np.uint8)


def run_token_oracle(g, sched, marked, coherent=(), circuit=None):
    """Execute the exported circuit and check every token's marker
    lands on its destination data qubit with ancillas reset, on every
    measurement branch when there are at most 16 random measurements,
    else on 64 seeded branches, all in one batched tableau pass.
    ``circuit`` stands in for ``emit_circuit(g, sched)`` when given."""
    final = apply_schedule(g, sched)
    c = emit_circuit(g, sched) if circuit is None else circuit
    width = 1 + g.ancilla_budget

    def prepared(batch):
        tab = Tableau(c.num_qubits, batch=batch)
        for v in marked:
            tab.x_gate(v * width)
        for v in coherent:
            tab.h(v * width)
        return tab

    vectors = branch_vectors(random_measurements(c, prepared(1)))
    tab, _ = c.run(prepared(vectors.shape[1]), forced=vectors)

    def holds(q, pauli, want):
        got = tab.stabilized_sign(q, pauli)
        return got is not None and bool(np.all(got == want))

    for w in range(g.n):
        tok = final.data(w)
        if tok in coherent:
            assert holds(w * width, "X", 1)
        else:
            assert holds(w * width, "Z", -1 if tok in marked else 1)
    for v in range(g.n):
        for s in range(1, g.ancilla_budget + 1):
            assert holds(v * width + s, "Z", 1)
    return c


def run_choi_oracle(g, sched, circuit=None):
    """Check the exported circuit as a map through its Choi state: a
    reference qubit per token, Bell-paired with the token's data qubit
    before the circuit, must end Bell-paired with the data qubit of the
    vertex the token reaches (+XX and +ZZ), with every ancilla back in
    +Z, on the branches ``run_token_oracle`` tries.  ``circuit``
    stands in for ``emit_circuit(g, sched)`` when given."""
    final = apply_schedule(g, sched)
    c = emit_circuit(g, sched) if circuit is None else circuit
    width = 1 + g.ancilla_budget
    ref = c.num_qubits          # token u's reference is qubit ref + u

    def prepared(batch):
        tab = Tableau(ref + g.n, batch=batch)
        for u in range(g.n):
            tab.h(ref + u)
            tab.cnot(ref + u, u * width)
        return tab

    vectors = branch_vectors(random_measurements(c, prepared(1)))
    tab, _ = c.run(prepared(vectors.shape[1]), forced=vectors)

    def holds(qubits, pauli):
        got = tab.stabilized_sign(qubits, pauli)
        return got is not None and bool(np.all(got == 1))

    for w in range(g.n):
        pair = (ref + final.data(w), w * width)
        assert holds(pair, "XX") and holds(pair, "ZZ"), w
    for v in range(g.n):
        for s in range(1, g.ancilla_budget + 1):
            assert holds((v * width + s,), "Z")


def test_choi_oracle_catches_wrong_maps():
    g = generate_graph("path", n=5)
    sched = greedy_schedule(g, Permutation((2, 1, 4, 3, 0)))
    c = emit_circuit(g, sched)
    width = 1 + g.ancilla_budget
    # a phase flip on one data qubit: marked tokens in Z cannot see it
    phase = CliffordCircuit(c.num_qubits, c.layers + [[Gate("z", (0,))]],
                            c.num_records)
    run_token_oracle(g, sched, marked={0, 1, 2, 3, 4}, circuit=phase)
    with pytest.raises(AssertionError):
        run_choi_oracle(g, sched, circuit=phase)
    # an S on one data qubit: the map is not the identity either
    tilt = CliffordCircuit(c.num_qubits,
                           c.layers + [[Gate("s", (2 * width,))]],
                           c.num_records)
    with pytest.raises(AssertionError):
        run_choi_oracle(g, sched, circuit=tilt)
    # the delivery swaps dropped: the states stay in ancilla slots
    stranded = CliffordCircuit(c.num_qubits, c.layers[:-3], c.num_records)
    with pytest.raises(AssertionError):
        run_choi_oracle(g, sched, circuit=stranded)


def test_empty_schedule():
    g = generate_graph("path", n=4)
    c = emit_circuit(g, Schedule([]))
    assert c.layers == []
    assert c.num_qubits == 4 * 7


def test_single_swap_edge_is_three_cnots():
    g = generate_graph("path", n=3)
    c = emit_circuit(g, Schedule([[SwapEdge(0, 1)]]))
    width = 1 + g.ancilla_budget
    assert [[g_.kind for g_ in layer] for layer in c.layers] == [["cnot"]] * 3
    assert c.layers[0][0].qubits == (0, width)
    assert c.layers[1][0].qubits == (width, 0)
    assert c.layers[2][0].qubits == (0, width)


def test_swap_local_targets_slots():
    g = generate_graph("path", n=2)
    c = emit_circuit(g, Schedule([[SwapLocal(1, 0, 2)]]))
    width = 1 + g.ancilla_budget
    assert c.layers[0][0].qubits == (width + 0, width + 2)


def test_swap_circuit_permutes_tokens():
    g = generate_graph("grid", n=3, d=2)
    sched = route_generic(g, generate_permutation("random", g, seed=7))
    run_token_oracle(g, sched, marked={0, 4, 8}, coherent={2})
    run_choi_oracle(g, sched)


def test_teleport_round_circuit_permutes_tokens():
    g = generate_graph("path", n=5)
    sched = greedy_schedule(g, Permutation((2, 1, 4, 3, 0)))
    run_token_oracle(g, sched, marked={0, 2}, coherent={4})
    run_choi_oracle(g, sched)


def test_chain_schedule_circuit_respects_parked_tokens():
    g = generate_graph("path", n=5, ancilla_budget=2)
    sched = greedy_schedule(g, Permutation((2, 1, 4, 3, 0)))
    run_token_oracle(g, sched, marked={1, 3})
    run_choi_oracle(g, sched)


def test_wheel_round_circuit():
    g = generate_graph("wheel", n=8)
    sched = greedy_schedule(g, generate_permutation("wheel", g, l=2))
    run_token_oracle(g, sched, marked={0, 3, 5})
    run_choi_oracle(g, sched)


def test_relay_round_circuit():
    g = generate_graph("ladder", n=4)
    sched = ladder_schedule(g, generate_permutation("random", g, seed=3))
    run_token_oracle(g, sched, marked={1, 6, 10}, coherent={0})
    run_choi_oracle(g, sched)


def test_swap_kind_transfer_circuit():
    g = generate_graph("path", n=5)
    sched = Schedule([[TeleRound((Transfer((0, 1, 2, 3, 4), kind="swap"),))]])
    c = run_token_oracle(g, sched, marked={0})
    run_choi_oracle(g, sched)
    assert len(c.layers) == 11


def test_round_layer_count_independent_of_distance():
    counts = set()
    for n in (7, 31):
        g = generate_graph("path", n=n)
        pi = generate_permutation("diam", g)
        counts.add(len(emit_circuit(g, greedy_schedule(g, pi)).layers))
    assert len(counts) == 1


def test_round_needs_free_ancillas():
    g = ArchGraph(3, ((0, 1), (1, 2)), ancilla_budget=1)
    sched = Schedule([[TeleRound((Transfer((0, 1, 2)),))]])
    with pytest.raises(ValueError, match="free ancilla"):
        emit_circuit(g, sched)
