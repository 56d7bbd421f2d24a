"""Survey vertex expansion and diameter across the built-in families.

Small graphs (N <= 24) get the exact brute-force expansion constant;
larger ones get the interval [2/N, u], where u is the score of the
family witness cut (1 for families without one).  lambda2 is printed
next to it and does not enter the interval.
"""

from teleroute.bounds import bounds_report
from teleroute.graphs import generate_graph


def row(g):
    rep = bounds_report(g)
    kind = "exact" if rep.exact else "interval"
    cut = "-" if rep.witness_cut is None else f"|S|={len(rep.witness_cut)}"
    print(f"{g.family:10s} N={rep.n:4d}  diam={rep.diam:3d}  "
          f"c in [{rep.c_lower}, {rep.c_upper}] ({kind}, witness {cut})  "
          f"iso_lb={rep.iso_lb}  lambda2={rep.lambda2:.3f}")


def main():
    print("== exact regime (N <= 24) ==")
    row(generate_graph("path", n=16))
    row(generate_graph("complete", n=12))
    row(generate_graph("wheel", n=15))
    row(generate_graph("hypercube", d=4))
    row(generate_graph("butterfly", r=2))
    print()
    print("== interval regime ==")
    row(generate_graph("path", n=200))
    row(generate_graph("grid", n=12, d=2))
    row(generate_graph("hypercube", d=7))
    row(generate_graph("butterfly", r=4))
    row(generate_graph("ladder", n=6))


if __name__ == "__main__":
    main()
