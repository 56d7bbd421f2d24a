"""Teleportation-assisted routing and its gate-level verification.

First the headline comparison: the endpoint exchange on a path needs a
linear number of swap layers but only one teleportation round.  Then a
relay chain is compiled to Clifford gates and checked as a map: a
reference qubit Bell-paired with the source must end Bell-paired with
the destination, on every measurement branch up to 5 hops and on 20
seeded branches beyond.
"""

from teleroute.graphs import generate_graph, generate_permutation
from teleroute.tele_routing import advantage
from teleroute.teleport_circuit import emit_teleport_circuit, verify_teleportation


def main():
    print("endpoint exchange on a path: swap depth vs teleportation rounds")
    for n in (7, 15, 31, 63):
        g = generate_graph("path", n=n)
        adv = advantage(g, generate_permutation("diam", g))
        print(f"  P_{n:2d}: swap depth {adv.swap_depth:2d}, "
              f"teleport rounds {adv.tele_depth}, "
              f"advantage {adv.ratio}")

    print()
    print("gate-level check of the relay chain as a map (Choi state)")
    for d in (1, 4, 16, 64):
        circuit = emit_teleport_circuit(d)
        ok = verify_teleportation(circuit, d)
        print(f"  {d:2d} hops: {circuit.num_qubits:3d} qubits, "
              f"{len(circuit.layers)} layers, "
              f"{'verified' if ok else 'FAILED'}")


if __name__ == "__main__":
    main()
