"""Schedules: timed sequences of routing primitives, with cost models.

A schedule is a list of timesteps; each timestep is a set of primitives
that act simultaneously.  Three primitives exist:

* ``SwapEdge(u, v)`` — exchange the data tokens of adjacent vertices.
* ``SwapLocal(v, s1, s2)`` — exchange two slots at one vertex (slot 0 is
  the data slot, slots 1..B are ancillas).
* ``TeleRound(transfers)`` — one round of entanglement-mediated
  transfers; each transfer carries a token along a vertex path, either
  one-way (``move``) or exchanging the endpoint tokens (``swap``).

Depth is the sum over timesteps of the most expensive primitive in the
timestep, under a configurable cost model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .graphs import ArchGraph

__all__ = [
    "SwapEdge",
    "SwapLocal",
    "Transfer",
    "TeleRound",
    "DepthModel",
    "Schedule",
    "op_to_dict",
    "op_from_dict",
]


@dataclass(frozen=True, slots=True)
class SwapEdge:
    """Endpoints are stored in increasing order, ``u < v``."""

    u: int
    v: int

    def __post_init__(self):
        u, v = self.u, self.v
        if u >= v:
            if u == v:
                raise ValueError("swap_edge endpoints must differ")
            object.__setattr__(self, "u", v)
            object.__setattr__(self, "v", u)


@dataclass(frozen=True, slots=True)
class SwapLocal:
    """Slots are stored in increasing order, ``s1 < s2``."""

    v: int
    s1: int
    s2: int

    def __post_init__(self):
        s1, s2 = self.s1, self.s2
        if s1 >= s2:
            if s1 == s2:
                raise ValueError("swap_local slots must differ")
            object.__setattr__(self, "s1", s2)
            object.__setattr__(self, "s2", s1)


@dataclass(frozen=True)
class Transfer:
    """One entanglement-mediated transfer along ``path`` (a simple path).

    ``kind`` is "move" (token travels path[0] -> path[-1], source slot
    becomes empty) or "swap" (endpoint tokens exchange).
    """

    path: tuple[int, ...]
    kind: str = "move"

    def __post_init__(self):
        object.__setattr__(self, "path", tuple(self.path))
        if len(self.path) < 2:
            raise ValueError("transfer path needs at least two vertices")
        if len(set(self.path)) != len(self.path):
            raise ValueError("transfer path must be a simple path")
        if self.kind not in ("move", "swap"):
            raise ValueError(f"unknown transfer kind {self.kind!r}")

    @property
    def source(self) -> int:
        return self.path[0]

    @property
    def dest(self) -> int:
        return self.path[-1]

    def halves(self) -> list[tuple[int, int]]:
        """(vertex, entangled-pair halves parked there) along the path.

        A path of d edges consumes one pair per edge: interiors hold two
        halves, endpoints one.  A "swap" uses a channel in each
        direction, doubling every load.  This is the one statement of
        the load rule; every other load count derives from it.
        """
        w = 2 if self.kind == "swap" else 1
        p = self.path
        return [(p[0], w), *((v, 2 * w) for v in p[1:-1]), (p[-1], w)]

    def load(self, v: int) -> int:
        """Pair halves this transfer parks at vertex ``v``."""
        return next((h for u, h in self.halves() if u == v), 0)


@dataclass(frozen=True)
class TeleRound:
    transfers: tuple[Transfer, ...]

    def __post_init__(self):
        object.__setattr__(self, "transfers", tuple(self.transfers))
        if not self.transfers:
            raise ValueError("tele_round needs at least one transfer")

    def vertices(self) -> set[int]:
        out = set()
        for t in self.transfers:
            out.update(t.path)
        return out

    def loads(self) -> dict[int, int]:
        """Pair halves the round parks at each vertex on its paths, in
        one pass over the transfers (keys are :meth:`vertices`)."""
        out: dict[int, int] = {}
        get = out.get
        for t in self.transfers:
            for v, h in t.halves():
                out[v] = get(v, 0) + h
        return out

    def load(self, v: int) -> int:
        return self.loads().get(v, 0)

    def incidence(self, v: int) -> int:
        return sum(1 for t in self.transfers if v in t.path)


Op = SwapEdge | SwapLocal | TeleRound


@dataclass(frozen=True)
class DepthModel:
    """Per-primitive time costs; a timestep costs the max over its ops."""

    swap_edge: int = 1
    swap_local: int = 0
    tele_round: int = 1

    @classmethod
    def conservative(cls) -> "DepthModel":
        """Counts local shuffles and charges a full transfer protocol."""
        return cls(swap_edge=1, swap_local=1, tele_round=3)

    def cost(self, op: Op) -> int:
        if isinstance(op, SwapEdge):
            return self.swap_edge
        if isinstance(op, SwapLocal):
            return self.swap_local
        if isinstance(op, TeleRound):
            return self.tele_round
        raise TypeError(f"not a primitive: {op!r}")

    def to_dict(self) -> dict:
        return {"swap_edge": self.swap_edge, "swap_local": self.swap_local,
                "tele_round": self.tele_round}

    @classmethod
    def from_dict(cls, d: dict) -> "DepthModel":
        names = cls.__dataclass_fields__
        if not isinstance(d, dict) or not set(d) <= set(names):
            raise ValueError(f"depth_model must be an object with keys "
                             f"among {sorted(names)}, got {d!r}")
        for key, cost in d.items():
            if type(cost) is not int:
                raise ValueError(f"depth_model cost {key!r} must be an "
                                 f"integer, got {cost!r}")
        return cls(**d)


def op_to_dict(op: Op) -> dict:
    if isinstance(op, SwapEdge):
        return {"type": "swap_edge", "u": op.u, "v": op.v}
    if isinstance(op, SwapLocal):
        return {"type": "swap_local", "v": op.v, "s1": op.s1, "s2": op.s2}
    if isinstance(op, TeleRound):
        return {"type": "tele_round",
                "transfers": [{"path": list(t.path), "kind": t.kind}
                              for t in op.transfers]}
    raise TypeError(f"not a primitive: {op!r}")


def _int_field(d: dict, key: str) -> int:
    x = d.get(key)
    if type(x) is not int:
        raise ValueError(f"{d.get('type')} field {key!r} must be an "
                         f"integer, got {x!r}")
    return x


def _transfer_from_dict(d) -> Transfer:
    if not isinstance(d, dict):
        raise ValueError(f"a transfer must be an object, got {d!r}")
    path = d.get("path")
    if not isinstance(path, list) or any(type(v) is not int for v in path):
        raise ValueError(f"transfer path must be a list of integers, "
                         f"got {path!r}")
    return Transfer(tuple(path), d.get("kind", "move"))


def op_from_dict(d: dict) -> Op:
    """The primitive a JSON object describes.  Raises ValueError on an
    unknown type or a missing or mistyped field."""
    if not isinstance(d, dict):
        raise ValueError(f"a primitive must be an object, got {d!r}")
    kind = d.get("type")
    if kind == "swap_edge":
        return SwapEdge(_int_field(d, "u"), _int_field(d, "v"))
    if kind == "swap_local":
        return SwapLocal(_int_field(d, "v"), _int_field(d, "s1"),
                         _int_field(d, "s2"))
    if kind == "tele_round":
        transfers = d.get("transfers")
        if not isinstance(transfers, list):
            raise ValueError(f"tele_round field 'transfers' must be a "
                             f"list, got {transfers!r}")
        return TeleRound(tuple(_transfer_from_dict(t) for t in transfers))
    raise ValueError(f"unknown primitive type {kind!r}")


# for depth_model and graph_ref: json.dumps with options builds a new
# encoder per call
_encode = json.JSONEncoder(sort_keys=True).encode


def _op_json(op: Op) -> str:
    """Canonical JSON text of a primitive, which is also its sort key
    within a timestep.  The text is exactly what
    ``JSONEncoder(sort_keys=True)`` gives for :func:`op_to_dict` of the
    op; it is formatted directly, since the fields are integers and a
    transfer kind is "move" or "swap", none of which needs escaping."""
    if type(op) is SwapEdge:
        return '{"type": "swap_edge", "u": %d, "v": %d}' % (op.u, op.v)
    if type(op) is SwapLocal:
        return ('{"s1": %d, "s2": %d, "type": "swap_local", "v": %d}'
                % (op.s1, op.s2, op.v))
    if type(op) is TeleRound:
        return ('{"transfers": [%s], "type": "tele_round"}' % ", ".join(
            '{"kind": "%s", "path": [%s]}' % (t.kind, ", ".join(map(str, t.path)))
            for t in op.transfers))
    raise TypeError(f"not a primitive: {op!r}")


@dataclass
class Schedule:
    """Primitives grouped into simultaneous timesteps.

    ``graph_ref`` is the short hash of the graph the schedule targets;
    it is filled in when serializing with a graph at hand.
    """

    timesteps: list[list]
    depth_model: DepthModel = field(default_factory=DepthModel)
    graph_ref: str | None = None

    def depth(self, model: DepthModel | None = None) -> int:
        model = model or self.depth_model
        return sum(max((model.cost(op) for op in step), default=0)
                   for step in self.timesteps)

    def num_timesteps(self) -> int:
        return len(self.timesteps)

    def ops(self):
        for step in self.timesteps:
            yield from step

    def count(self, optype) -> int:
        return sum(1 for op in self.ops() if isinstance(op, optype))

    def to_json(self, graph: ArchGraph | None = None) -> str:
        """Canonical JSON: empty timesteps dropped and the ops of each
        timestep sorted by their canonical JSON text.  The result is
        byte for byte what ``JSONEncoder(sort_keys=True)`` (and so
        ``json.dumps(doc, sort_keys=True)``) gives for the dict form,
        assembled from each op's canonical string (:func:`_op_json`) so
        that every op is formatted once."""
        ref = graph.ref_hash() if graph is not None else self.graph_ref
        steps = ", ".join("[" + ", ".join(sorted(map(_op_json, step))) + "]"
                          for step in self.timesteps if step)
        return (f'{{"depth_model": {_encode(self.depth_model.to_dict())}, '
                f'"graph_ref": {_encode(ref)}, "timesteps": [{steps}]}}')

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        """Parse :meth:`to_json` output.  Raises ValueError on JSON that
        is not a schedule document."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"a schedule must be a JSON object, got "
                             f"{type(doc).__name__}")
        if "timesteps" not in doc:
            raise ValueError("schedule JSON has no 'timesteps' key")
        steps = doc["timesteps"]
        if not isinstance(steps, list) or not all(
                isinstance(step, list) for step in steps):
            raise ValueError("schedule 'timesteps' must be a list of lists "
                             "of primitives")
        ops = [[op_from_dict(d) for d in step] for step in steps]
        model = DepthModel.from_dict(doc.get("depth_model", {}))
        return cls(ops, model, doc.get("graph_ref"))
