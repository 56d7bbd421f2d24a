"""Route a few permutations with nearest-neighbour swaps only.

Shows the family-specific routers (odd-even path sort, product-graph
composition, two-layer complete-graph routing) and the BFS spanning-tree
fallback that wheels take, with the verifier run on every schedule
before its depth is reported.
"""

from teleroute.execute import verify_schedule
from teleroute.graphs import diameter, generate_graph, generate_permutation
from teleroute.swap_routing import route_generic


def show(g, pi, label):
    sched = route_generic(g, pi)
    assert verify_schedule(g, sched, pi)
    print(f"{g.family:10s} N={g.n:4d} diam={diameter(g):3d}  {label:18s} "
          f"depth={sched.depth():4d}  timesteps={sched.num_timesteps():4d}")


def main():
    g = generate_graph("path", n=32)
    show(g, generate_permutation("reflection", g), "reflection")
    show(g, generate_permutation("diam", g), "endpoint swap")

    g = generate_graph("wheel", n=16)
    show(g, generate_permutation("wheel", g, l=4), "segment exchange")
    show(g, generate_permutation("cyclic_shift", g, s=5), "cyclic shift")

    g = generate_graph("grid", n=6, d=2)
    show(g, generate_permutation("reflection", g), "reflection")
    show(g, generate_permutation("random", g, seed=7), "random")

    g = generate_graph("hypercube", d=5)
    show(g, generate_permutation("random", g, seed=7), "random")

    g = generate_graph("complete", n=24)
    show(g, generate_permutation("random", g, seed=7), "random")


if __name__ == "__main__":
    main()
