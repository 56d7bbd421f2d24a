"""Schedules: timed sequences of routing primitives, with cost models.

A schedule is a list of timesteps; each timestep is a set of primitives
that act simultaneously, held as a list of primitive objects or, when
it holds edge swaps only, as a :class:`SwapLayer` (two lists of
endpoints, which yields ``SwapEdge`` objects on demand).  Every router
emits its edge swaps as layers, as ``from_json`` reads them; a list
holding ``SwapEdge`` objects comes only from a hand-built step or a
JSON step that mixes kinds.  Three primitives exist:

* ``SwapEdge(u, v)`` — exchange the data tokens of adjacent vertices.
* ``SwapLocal(v, s1, s2)`` — exchange two slots at one vertex (slot 0 is
  the data slot, slots 1..B are ancillas).
* ``TeleRound(transfers)`` — one round of entanglement-mediated
  transfers; each transfer carries a token along a vertex path, either
  one-way (``move``) or exchanging the endpoint tokens (``swap``).  A
  round holds its paths as a layer holds its swaps: one int list of
  every path's vertices, concatenated, the path offsets and a kind per
  transfer, and it yields ``Transfer`` objects on demand.

Depth is the sum over timesteps of the most expensive primitive in the
timestep, under a configurable cost model.  Both forms of a timestep
give the same depth, the same canonical JSON and, in the executor, the
same result or the same error.  A vertex that is not an integer is
refused: by a round when it is built, and by ``to_json`` for a swap
endpoint, so that ``%d`` never writes a float's integer part.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import repeat
from math import inf
from operator import add, index, lt

from .graphs import ArchGraph

__all__ = [
    "SwapEdge",
    "SwapLayer",
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


class SwapLayer:
    """A timestep of edge swaps only: swap i exchanges the data tokens of
    ``us[i]`` and ``vs[i]``.  Endpoints are stored as lists of ints with
    ``us[i] < vs[i]``, the order :class:`SwapEdge` normalises to, so a
    layer costs no object per swap.  Iterating yields the ``SwapEdge``
    objects in emission order; ``len`` is the number of swaps.  The
    constructor does not check that the swaps are disjoint or lie on
    edges; the executor does."""

    __slots__ = ("us", "vs")
    __hash__ = None

    def __init__(self, us, vs):
        us, vs = list(us), list(vs)
        if len(us) != len(vs):
            raise ValueError("swap layer endpoint lists differ in length")
        if not all(map(lt, us, vs)):
            for i, (u, v) in enumerate(zip(us, vs)):
                if u >= v:
                    if u == v:
                        raise ValueError("swap_edge endpoints must differ")
                    us[i], vs[i] = v, u
        self.us, self.vs = us, vs

    def __len__(self) -> int:
        return len(self.us)

    def __iter__(self):
        return map(SwapEdge, self.us, self.vs)

    def __eq__(self, other):
        if type(other) is not SwapLayer:
            return NotImplemented
        return self.us == other.us and self.vs == other.vs

    def __repr__(self) -> str:
        return f"SwapLayer({self.us!r}, {self.vs!r})"


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
        direction, doubling every load.  Nothing in the package calls
        this: it is the plain statement of the load rule.  Tests hold
        to it :meth:`TeleRound.loads` and :meth:`TeleRound.load`, which
        the executor's per-primitive path reads, the array check of
        ``execute._rounds_fit_as_arrays``, which sums 2w per path vertex
        less w at each end, and the packer's ``tele_routing._add_load``.
        """
        w = 2 if self.kind == "swap" else 1
        p = self.path
        return [(p[0], w), *((v, 2 * w) for v in p[1:-1]), (p[-1], w)]


_WEIGHTS = {"move": 1, "swap": 2}   # channels per transfer kind


class _Transfers:
    """The transfers of a round as a sequence of :class:`Transfer`
    objects, each built when it is read (iterating reads them in turn);
    ``len`` builds none."""

    __slots__ = ("rnd",)

    def __init__(self, rnd: "TeleRound"):
        self.rnd = rnd

    def __len__(self) -> int:
        return len(self.rnd.kinds)

    def __getitem__(self, i: int) -> Transfer:
        r = self.rnd
        i = range(len(r.kinds))[i]
        return Transfer(tuple(r.verts[r.offsets[i]:r.offsets[i + 1]]),
                        r.kinds[i])


class TeleRound:
    """One round of entanglement-mediated transfers, held as a
    :class:`SwapLayer` holds swaps: ``verts`` is every transfer's path
    concatenated, in order, transfer i's path is
    ``verts[offsets[i]:offsets[i + 1]]`` and ``kinds[i]`` its kind.  So
    the routers, ``Schedule.from_json``, ``to_json`` and the executor
    read whole lists, with no object per transfer.

    ``TeleRound(transfers)`` takes :class:`Transfer` objects, and
    ``transfers`` yields them again, each built when it is read.  A path
    vertex must be an integer (an int, a bool or a numpy int); anything
    else raises ValueError.  As for a layer, the lists are not copied
    out, so a round is not hashable."""

    __slots__ = ("verts", "offsets", "kinds")
    __hash__ = None

    def __init__(self, transfers):
        verts, offsets, kinds = [], [0], []
        for tr in transfers:
            verts += tr.path
            offsets.append(len(verts))
            kinds.append(tr.kind)
        if not kinds:
            raise ValueError("tele_round needs at least one transfer")
        # an int, a bool or a numpy int, as operator.index takes them
        if not set(map(type, verts)) <= {int}:
            for v in verts:
                try:
                    index(v)
                except TypeError:
                    raise ValueError(f"transfer path vertex {v!r} is not "
                                     f"an integer") from None
        self.verts, self.offsets, self.kinds = verts, offsets, kinds

    @classmethod
    def _from_lists(cls, verts: list, offsets: list[int],
                    kinds: list[str]) -> "TeleRound":
        """A round that takes the given lists, unchecked, for the
        routers and ``Schedule.from_json``, whose lists are well formed
        already: simple paths of at least two integer vertices,
        ``offsets`` starting at 0 and ending at ``len(verts)``, kinds
        "move" or "swap".  The executor's array check relies on it
        (:class:`Transfer` refuses a path that is not simple)."""
        rnd = cls.__new__(cls)
        rnd.verts, rnd.offsets, rnd.kinds = verts, offsets, kinds
        return rnd

    @property
    def transfers(self) -> _Transfers:
        return _Transfers(self)

    def __eq__(self, other):
        if type(other) is not TeleRound:
            return NotImplemented
        return (self.verts == other.verts and self.offsets == other.offsets
                and self.kinds == other.kinds)

    def __repr__(self) -> str:
        return f"TeleRound(transfers={tuple(self.transfers)!r})"

    def vertices(self) -> set[int]:
        return set(self.verts)

    def loads(self) -> dict[int, int]:
        """Pair halves the round parks at each vertex on its paths, in
        one pass over the path vertices (keys are :meth:`vertices`, in
        order of first appearance).  This is :meth:`Transfer.halves`
        summed: 2w at every vertex of a path, less w at each end."""
        out: dict[int, int] = {}
        get, verts, offs = out.get, self.verts, self.offsets
        for a, b, kind in zip(offs, offs[1:], self.kinds):
            w = _WEIGHTS[kind]
            for v in verts[a:b]:
                out[v] = get(v, 0) + 2 * w
            out[verts[a]] -= w
            out[verts[b - 1]] -= w
        return out

    def load(self, v: int) -> int:
        return self.loads().get(v, 0)

    def incidence(self, v: int) -> int:
        verts, offs = self.verts, self.offsets
        return sum(v in verts[a:b] for a, b in zip(offs, offs[1:]))


Op = SwapEdge | SwapLocal | TeleRound


@dataclass(frozen=True)
class DepthModel:
    """Per-primitive time costs; a timestep costs the max over its ops.

    Costs are integers; a swap layer and a teleportation round cost at
    least 1, a local-slot swap at least 0.
    """

    swap_edge: int = 1
    swap_local: int = 0
    tele_round: int = 1

    def __post_init__(self):
        for name, least in (("swap_edge", 1), ("swap_local", 0),
                            ("tele_round", 1)):
            cost = getattr(self, name)
            if type(cost) is not int or cost < least:
                raise ValueError(f"depth model cost {name!r} must be an "
                                 f"integer >= {least}, got {cost!r}")

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
        return cls(**d)


def op_to_dict(op: Op) -> dict:
    if isinstance(op, SwapEdge):
        return {"type": "swap_edge", "u": op.u, "v": op.v}
    if isinstance(op, SwapLocal):
        return {"type": "swap_local", "v": op.v, "s1": op.s1, "s2": op.s2}
    if isinstance(op, TeleRound):
        verts, offs = op.verts, op.offsets
        return {"type": "tele_round",
                "transfers": [{"path": verts[a:b], "kind": kind}
                              for a, b, kind in zip(offs, offs[1:],
                                                    op.kinds)]}
    raise TypeError(f"not a primitive: {op!r}")


def _int_field(d: dict, key: str) -> int:
    x = d.get(key)
    if type(x) is not int:
        raise ValueError(f"{d.get('type')} field {key!r} must be an "
                         f"integer, got {x!r}")
    return x


def _round_from_dicts(transfers: list) -> TeleRound:
    """The round a JSON list of transfer objects describes, its lists
    built straight from the parsed paths: one pass over a path's entry
    types checks that it holds ints only (``type(True)`` is bool, so no
    bools), one set that it is simple."""
    verts, offsets, kinds = [], [0], []
    for d in transfers:
        if not isinstance(d, dict):
            raise ValueError(f"a transfer must be an object, got {d!r}")
        path, kind = d.get("path"), d.get("kind", "move")
        if not isinstance(path, list) or not set(map(type, path)) <= {int}:
            raise ValueError(f"transfer path must be a list of integers, "
                             f"got {path!r}")
        if (len(path) < 2 or len(set(path)) != len(path)
                or kind != "move" and kind != "swap"):
            Transfer(path, kind)   # raises the error
        verts += path
        offsets.append(len(verts))
        kinds.append(kind)
    if not kinds:
        raise ValueError("tele_round needs at least one transfer")
    return TeleRound._from_lists(verts, offsets, kinds)


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
        return _round_from_dicts(transfers)
    raise ValueError(f"unknown primitive type {kind!r}")


# for depth_model and graph_ref: json.dumps with options builds a new
# encoder per call
_encode = json.JSONEncoder(sort_keys=True).encode


def _integer(v, what: str = "vertex"):
    """``v`` as :func:`operator.index` takes it; ValueError otherwise, so
    that ``%d`` never writes a float's integer part."""
    try:
        return index(v)
    except TypeError:
        raise ValueError(f"{what} {v!r} is not an integer") from None


def _op_json(op: Op) -> str:
    """Canonical JSON text of a primitive, which is also its sort key
    within a timestep.  The text is exactly what
    ``JSONEncoder(sort_keys=True)`` gives for :func:`op_to_dict` of the
    op; it is formatted directly, since the fields are integers and a
    transfer kind is "move" or "swap", none of which needs escaping.
    A swap endpoint or slot that is not an integer raises ValueError."""
    if type(op) is SwapEdge:
        u, v = op.u, op.v
        if type(u) is not int or type(v) is not int:
            u, v = _integer(u), _integer(v)
        return '{"type": "swap_edge", "u": %d, "v": %d}' % (u, v)
    if type(op) is SwapLocal:
        v, s1, s2 = op.v, op.s1, op.s2
        if type(v) is not int or type(s1) is not int or type(s2) is not int:
            v, s1, s2 = _integer(v), _integer(s1, "slot"), _integer(s2, "slot")
        return ('{"s1": %d, "s2": %d, "type": "swap_local", "v": %d}'
                % (s1, s2, v))
    if type(op) is TeleRound:
        return _round_json(op, "%d".__mod__)
    raise TypeError(f"not a primitive: {op!r}")


def _round_json(op: TeleRound, vertex) -> str:
    """:func:`_op_json` of a round, ``vertex`` formatting each path
    vertex as ``%d`` does (so a bool writes as 1)."""
    verts, offs = op.verts, op.offsets
    return ('{"transfers": [%s], "type": "tele_round"}' % ", ".join([
        '{"kind": "%s", "path": [%s]}'
        % (kind, ", ".join(map(vertex, verts[a:b])))
        for a, b, kind in zip(offs, offs[1:], op.kinds)]))


class _VertexTexts(dict):
    """``texts[v]`` is ``fmt % v``, formatted the first time ``v`` is
    looked up.  Keys that compare equal share one text, which is safe
    for ``%d``: equal numbers format alike.  A key that is not an
    integer raises ValueError when it is first looked up.  Made per
    ``to_json`` call."""

    __slots__ = ("fmt",)

    def __init__(self, fmt: str):
        super().__init__()
        self.fmt = fmt

    def __missing__(self, v):
        text = self[v] = self.fmt % (v if type(v) is int else _integer(v))
        return text


def _step_json(step, heads: _VertexTexts, tails: _VertexTexts,
               vertices: _VertexTexts) -> str:
    """A timestep's ops as canonical JSON texts, sorted, in a list.  The
    text of a layer's swap (u, v) is ``heads[u] + tails[v]``, the two
    halves of what :func:`_op_json` formats for ``SwapEdge(u, v)``, and
    the path vertices of a round alone in its step (as the teleport
    routers emit rounds) are ``vertices[v]``, so each vertex is
    formatted, and checked to be an integer, once per schedule."""
    if type(step) is SwapLayer:
        texts = list(map(add, map(heads.__getitem__, step.us),
                         map(tails.__getitem__, step.vs)))
    elif len(step) == 1 and type(step[0]) is TeleRound:
        return "[%s]" % _round_json(step[0], vertices.__getitem__)
    else:
        texts = list(map(_op_json, step))
    texts.sort()
    return "[" + ", ".join(texts) + "]"


def _swap_layer_from_dicts(step: list) -> SwapLayer | None:
    """The layer a nonempty JSON timestep describes when every entry is
    a well-formed ``swap_edge`` object, else None."""
    if not step:
        return None
    us, vs = [], []
    for d in step:
        if type(d) is not dict or d.get("type") != "swap_edge":
            return None
        u, v = d.get("u"), d.get("v")
        if type(u) is not int or type(v) is not int or u == v:
            return None
        us.append(u)
        vs.append(v)
    return SwapLayer(us, vs)


@dataclass
class Schedule:
    """Primitives grouped into simultaneous timesteps.

    ``graph_ref`` is the short hash of the graph the schedule targets;
    it is filled in when serializing with a graph at hand.
    """

    timesteps: list[list | SwapLayer]
    depth_model: DepthModel = field(default_factory=DepthModel)
    graph_ref: str | None = None

    def depth(self, model: DepthModel | None = None) -> int:
        model = model or self.depth_model
        # an op's cost by its type, in one builtin pass per step; any
        # other type (a subclass, a non-primitive) reads as inf, and its
        # step goes op by op through DepthModel.cost, which raises on
        # the first non-primitive
        cost = {SwapEdge: model.swap_edge, SwapLocal: model.swap_local,
                TeleRound: model.tele_round}.get
        total = 0
        for step in self.timesteps:
            if type(step) is SwapLayer:
                # every swap of a layer costs swap_edge
                total += model.swap_edge if step else 0
                continue
            most = max(map(cost, map(type, step), repeat(inf)), default=0)
            total += most if most != inf else max(map(model.cost, step))
        return total

    def num_timesteps(self) -> int:
        return len(self.timesteps)

    def ops(self):
        for step in self.timesteps:
            yield from step

    def to_json(self, graph: ArchGraph | None = None) -> str:
        """Canonical JSON: empty timesteps dropped and the ops of each
        timestep sorted by their canonical JSON text.  The result is
        byte for byte what ``JSONEncoder(sort_keys=True)`` (and so
        ``json.dumps(doc, sort_keys=True)``) gives for the dict form,
        assembled from each op's canonical string (:func:`_op_json`, or
        for a :class:`SwapLayer` its two halves, and for a lone round
        its path vertices, formatted once per vertex by ``%d``, so a
        bool writes as 1) so that no op is formatted twice."""
        ref = graph.ref_hash() if graph is not None else self.graph_ref
        heads = _VertexTexts('{"type": "swap_edge", "u": %d, "v": ')
        tails = _VertexTexts("%d}")
        vertices = _VertexTexts("%d")
        steps = ", ".join(_step_json(step, heads, tails, vertices)
                          for step in self.timesteps if step)
        return (f'{{"depth_model": {_encode(self.depth_model.to_dict())}, '
                f'"graph_ref": {_encode(ref)}, "timesteps": [{steps}]}}')

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        """Parse :meth:`to_json` output.  A timestep of well-formed edge
        swaps only becomes a :class:`SwapLayer`, any other a list of
        primitives.  Raises ValueError on JSON that is not a schedule
        document."""
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
        ref = doc.get("graph_ref")
        if ref is not None and type(ref) is not str:
            raise ValueError(f"schedule 'graph_ref' must be a string or "
                             f"null, got {ref!r}")
        ops = [layer if (layer := _swap_layer_from_dicts(step)) is not None
               else [op_from_dict(d) for d in step] for step in steps]
        model = DepthModel.from_dict(doc.get("depth_model", {}))
        return cls(ops, model, ref)
