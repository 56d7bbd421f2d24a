"""Independent checks of the program's machine output.

This module does not import teleroute.  It reads schedule JSON as the
CLI writes it and replays it on its own token model: vertex ``v``
holds a data slot (slot 0) and ``budget`` ancilla slots, and token
``v`` starts in the data slot of ``v``.  A schedule passes when

* every primitive uses an edge of the graph and slots in range,
* no two primitives of a timestep touch the same slot,
* in every teleportation round each vertex's pair-half load, plus the
  tokens already parked in its ancillas, stays within its budget (the
  loads of a round are summed in one pass over its transfers),
* no token is lost or duplicated, and
* every token ends in the data slot of its image under pi.

``replay_schedule`` returns the list of problems found (empty when the
schedule is sound) and the schedule's shape: depth under the default
cost model (swap layer 1, local swap 0, teleportation round 1),
timesteps, rounds and transfers.
"""

from __future__ import annotations

from fractions import Fraction

_DEFAULT_COST = {"swap_edge": 1, "swap_local": 0, "tele_round": 1}


class ReplayError(Exception):
    pass


def _claim(taken: set, slot: tuple[int, int], t: int):
    if slot in taken:
        raise ReplayError(f"timestep {t}: slot {slot} used twice")
    taken.add(slot)


def _tele_round(slots, edges, budget, op, t, taken):
    load: dict[int, int] = {}
    sends: list[tuple[int, int]] = []
    for tr in op["transfers"]:
        path = tr["path"]
        kind = tr.get("kind", "move")
        if kind not in ("move", "swap") or len(path) < 2:
            raise ReplayError(f"timestep {t}: malformed transfer {tr}")
        if len(set(path)) != len(path):
            raise ReplayError(f"timestep {t}: transfer path {path} repeats "
                              f"a vertex")
        for a, b in zip(path, path[1:]):
            if (min(a, b), max(a, b)) not in edges:
                raise ReplayError(f"timestep {t}: ({a},{b}) is not an edge")
        scale = 2 if kind == "swap" else 1
        for i, v in enumerate(path):
            end = i == 0 or i == len(path) - 1
            load[v] = load.get(v, 0) + scale * (1 if end else 2)
        sends.append((path[0], path[-1]))
        if kind == "swap":
            sends.append((path[-1], path[0]))
    for v, need in load.items():
        for s in range(budget + 1):
            _claim(taken, (v, s), t)
        parked = sum(1 for tok in slots[v][1:] if tok is not None)
        if need + parked > budget:
            raise ReplayError(f"timestep {t}: vertex {v} carries load {need} "
                              f"with {parked} parked tokens, budget {budget}")
    # every transfer of a round reads its source before any write lands
    moving = {}
    for src, _ in sends:
        if src in moving or slots[src][0] is None:
            raise ReplayError(f"timestep {t}: vertex {src} sends no token "
                              f"or sends twice")
        moving[src] = slots[src][0]
    for src in moving:
        slots[src][0] = None
    for src, dst in sends:
        if slots[dst][0] is not None:
            raise ReplayError(f"timestep {t}: token {slots[dst][0]} at "
                              f"vertex {dst} is overwritten")
        slots[dst][0] = moving[src]


def replay_schedule(doc: dict, n: int, edges: set, budget: int,
                    image) -> tuple[list[str], dict]:
    """Replay the schedule document ``doc`` on a graph with ``n``
    vertices, undirected ``edges`` as (lo, hi) pairs and ``budget``
    ancillas per vertex, against the permutation ``image``."""
    slots = [[v] + [None] * budget for v in range(n)]
    shape = {"depth": 0, "timesteps": 0, "rounds": 0, "transfers": 0}
    try:
        for t, step in enumerate(doc["timesteps"]):
            taken: set = set()
            cost = 0
            for op in step:
                kind = op["type"]
                cost = max(cost, _DEFAULT_COST.get(kind, 0))
                if kind == "swap_edge":
                    u, v = op["u"], op["v"]
                    if (min(u, v), max(u, v)) not in edges:
                        raise ReplayError(f"timestep {t}: swap on non-edge "
                                          f"({u},{v})")
                    _claim(taken, (u, 0), t)
                    _claim(taken, (v, 0), t)
                    slots[u][0], slots[v][0] = slots[v][0], slots[u][0]
                elif kind == "swap_local":
                    v, s1, s2 = op["v"], op["s1"], op["s2"]
                    if not (0 <= v < n and 0 <= s1 <= budget
                            and 0 <= s2 <= budget and s1 != s2):
                        raise ReplayError(f"timestep {t}: bad local swap {op}")
                    _claim(taken, (v, s1), t)
                    _claim(taken, (v, s2), t)
                    row = slots[v]
                    row[s1], row[s2] = row[s2], row[s1]
                elif kind == "tele_round":
                    _tele_round(slots, edges, budget, op, t, taken)
                    shape["rounds"] += 1
                    shape["transfers"] += len(op["transfers"])
                else:
                    raise ReplayError(f"timestep {t}: unknown primitive "
                                      f"{kind!r}")
            shape["depth"] += cost
            shape["timesteps"] += 1
    except ReplayError as e:
        return [str(e)], shape
    except (KeyError, IndexError, TypeError) as e:
        return [f"malformed schedule: {e!r}"], shape

    problems = []
    tokens = sorted(tok for row in slots for tok in row if tok is not None)
    if tokens != list(range(n)):
        problems.append("tokens not conserved")
    elif any(tok is not None for row in slots for tok in row[1:]):
        problems.append("a token is left in an ancilla slot")
    else:
        where = [0] * n
        for v, row in enumerate(slots):
            where[row[0]] = v
        if where != list(image):
            bad = sum(1 for a, b in zip(where, image) if a != b)
            problems.append(f"final placement differs from pi at "
                            f"{bad} tokens")
    return problems, shape


def graph_edges(doc: dict) -> set:
    """Undirected edge set of a graph JSON document."""
    return {(min(u, v), max(u, v)) for u, v in doc["edges"]}


def boundary(edges: set, side) -> int:
    """Vertices outside ``side`` with a neighbour inside it."""
    side = set(side)
    out = set()
    for u, v in edges:
        if (u in side) != (v in side):
            out.add(v if u in side else u)
    return len(out)


def check_bounds(doc: dict, n: int, edges: set) -> list[str]:
    """Check a ``teleroute bounds`` document against its witness cut.

    An exact report must state c = |boundary(W)| / min(|W|, n - |W|)
    for its witness W; an interval report must be ordered and its upper
    end must not exceed the score of the witness it returns.
    """
    problems = []
    lo, hi = Fraction(doc["c_lower"]), Fraction(doc["c_upper"])
    if not 0 < lo <= hi <= 1:
        problems.append(f"expansion interval [{lo}, {hi}] is not ordered "
                        f"inside (0, 1]")
    cut = doc.get("witness_cut")
    if doc["exact"]:
        if lo != hi:
            problems.append("exact report with an open interval")
        if not cut:
            return problems + ["exact report without a witness cut"]
    if cut:
        inside, outside = set(cut), set(range(n)) - set(cut)
        if not inside or not outside:
            return problems + ["witness cut is not a proper subset"]
        score = Fraction(min(boundary(edges, inside),
                             boundary(edges, outside)),
                         min(len(inside), len(outside)))
        # the witness is the side with the smaller boundary
        own = Fraction(boundary(edges, inside),
                       min(len(inside), len(outside)))
        if doc["exact"] and not hi == own == score:
            problems.append(f"exact expansion {hi} differs from the "
                            f"witness cut's {own}")
        if not doc["exact"] and hi > score:
            problems.append(f"upper bound {hi} exceeds the witness cut's "
                            f"{score}")
    return problems
