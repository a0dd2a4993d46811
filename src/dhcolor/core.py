"""Directed hypergraph data model, text format, and proper-coloring check.

A directed hypergraph is a finite ordered vertex sequence plus a sequence of
hyperedges, each partitioned into a tail set and a head set.  All values here
are immutable after construction; every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Iterable, Mapping

# Color indices used by every algorithm and trace in this package.
BLUE, RED, GREEN, YELLOW = 0, 1, 2, 3
COLOR_NAMES = ("blue", "red", "green", "yellow")


class ParseError(ValueError):
    """Malformed hypergraph or coloring text."""


class ValidationError(ValueError):
    """A value violates a structural invariant of the data model."""


def _check_name(name: str) -> str:
    # str.split and str.isspace share one whitespace predicate, so this is
    # "empty or contains whitespace", tested at C speed.
    if not isinstance(name, str) or name.split() != [name] or name == ">" or "#" in name:
        raise ValidationError(f"invalid vertex name: {name!r}")
    return name


_setattr = object.__setattr__  # bypasses the frozen dataclasses' __setattr__


class cached_attribute:
    """``functools.cached_property`` without its lock: the first read calls
    the function and stores the value in the instance's ``__dict__``, which
    later reads find first, as this descriptor defines no ``__set__``.  On
    CPython 3.11 the lock cost more than the rest of a first read (3.12
    dropped it).  Two threads reading at once may both compute the value;
    every value here is a pure function of its immutable instance.
    """

    def __init__(self, func) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class DirectedEdge:
    """One hyperedge: disjoint tail and head vertex sets, union non-empty.

    ``vertices`` (tail | head) is computed once at construction.
    """

    tail: frozenset[str]
    head: frozenset[str]

    def __init__(self, tail: Iterable[str], head: Iterable[str]) -> None:
        # Written out (dataclass keeps an explicit __init__) so each attribute
        # is set once.  frozenset() of a frozenset is the same object, so
        # sides that are already frozen cost nothing here.  Setting through
        # self.__dict__ would be faster still, but on CPython 3.11 it gives
        # every edge a dict of its own, ~140 bytes more per edge.
        tail, head = frozenset(tail), frozenset(head)
        if tail & head:
            overlap = ",".join(sorted(tail & head))
            raise ValidationError(f"head and tail overlap on {{{overlap}}}")
        vertices = tail | head
        if not vertices:
            raise ValidationError("edge has no vertices")
        _setattr(self, "tail", tail)
        _setattr(self, "head", head)
        # Not a field: equality, hash and repr still see only tail and head.
        _setattr(self, "vertices", vertices)

    def __len__(self) -> int:
        return len(self.tail) + len(self.head)


edge = DirectedEdge  # the short name; it takes any iterables of vertex names


class HypergraphIndex:
    """A hypergraph's edges by vertex position (``hg.index``); the vertex at
    position p is bit p of every mask.  ``head_rows[k]`` and ``tail_rows[k]``,
    the positions of edge k's heads and tails in no set order, are found at
    construction; each other view is built from them on first use:
    ``head_masks``, ``tail_masks`` and ``masks`` give each edge's bitmask of
    its heads, its tails and all its vertices; ``heads_at``, ``tails_at`` and
    ``edges_at`` give for each position the ascending indices of the edges it
    heads, is a tail of, or lies in; ``edge_bits`` gives for each position
    the bitset of the edges through it.  It keeps no reference to the
    hypergraph, so both are freed by reference counting alone.
    """

    def __init__(self, hg: DirectedHypergraph) -> None:
        get = hg.positions.__getitem__
        self.n = len(hg.vertices)
        self.head_rows = [tuple(map(get, e.head)) for e in hg.edges]
        self.tail_rows = [tuple(map(get, e.tail)) for e in hg.edges]

    @cached_attribute
    def head_masks(self) -> list[int]:
        return _row_masks(self.head_rows)

    @cached_attribute
    def tail_masks(self) -> list[int]:
        return _row_masks(self.tail_rows)

    @cached_attribute
    def masks(self) -> list[int]:
        return [h | t for h, t in zip(self.head_masks, self.tail_masks)]

    @cached_attribute
    def heads_at(self) -> list[list[int]]:
        return file_under_keys(self.head_rows, [[] for _ in range(self.n)])

    @cached_attribute
    def tails_at(self) -> list[list[int]]:
        return file_under_keys(self.tail_rows, [[] for _ in range(self.n)])

    @cached_attribute
    def edges_at(self) -> list[list[int]]:
        return file_under_keys(map(add, self.head_rows, self.tail_rows), [[] for _ in range(self.n)])

    @cached_attribute
    def edge_bits(self) -> list[int]:
        return _row_masks(self.edges_at)


def _row_masks(rows: Iterable[Iterable[int]]) -> list[int]:
    masks = []
    for row in rows:
        mask = 0
        for p in row:
            mask |= 1 << p
        masks.append(mask)
    return masks


def _mask_row(mask: int) -> list[int]:
    """The positions of mask's bits, ascending (one row of ``_row_masks``)."""
    row = []
    while mask:
        low = mask & -mask
        row.append(low.bit_length() - 1)
        mask ^= low
    return row


def file_under_keys(rows: Iterable[Iterable[int]], lists):
    """Append k to lists[key] for each key of rows[k], so each list ascends."""
    for k, row in enumerate(rows):
        for key in row:
            lists[key].append(k)
    return lists


@dataclass(frozen=True)
class DirectedHypergraph:
    """Ordered vertex sequence plus edge sequence.

    The vertex ordering is part of the value: the coloring algorithms are
    stated for an arbitrary but fixed ordering, and freezing it makes runs
    deterministic and reproducible.
    """

    vertices: tuple[str, ...]
    edges: tuple[DirectedEdge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))
        seen = set()
        for v in self.vertices:
            _check_name(v)
            if v in seen:
                raise ValidationError(f"duplicate vertex: {v}")
            seen.add(v)
        for idx, e in enumerate(self.edges):
            missing = e.vertices - seen
            if missing:
                names = ",".join(sorted(map(str, missing)))
                raise ValidationError(f"edge {idx} uses undeclared vertices: {names}")

    @cached_attribute
    def positions(self) -> dict[str, int]:
        """Vertex name to position in the vertex sequence."""
        return {v: i for i, v in enumerate(self.vertices)}

    index = cached_attribute(HypergraphIndex)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def with_vertex_order(self, order: Iterable[str]) -> "DirectedHypergraph":
        """Same edges under a permuted vertex sequence."""
        order = tuple(order)  # a one-shot iterator is read once, here
        # Tested without sorting, which mixed or unhashable items would turn
        # into a TypeError.
        if (len(order) != self.n or not all(isinstance(v, str) for v in order)
                or set(order) != self.positions.keys()):
            raise ValidationError("new order is not a permutation of the vertex set")
        return DirectedHypergraph(order, self.edges)


def is_two_to_one(hg: DirectedHypergraph) -> bool:
    """True iff every edge has exactly two tail vertices and one head vertex."""
    return all(len(e.tail) == 2 and len(e.head) == 1 for e in hg.edges)


@dataclass(frozen=True)
class Coloring:
    """Total assignment of color indices 0..k-1 to vertex names."""

    assignment: Mapping[str, int]
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", dict(self.assignment))
        # Only ints (not bools or floats) come back from the text form as they went in.
        if type(self.k) is not int or self.k < 1:
            raise ValidationError(f"a coloring needs an int count of colors >= 1, not {self.k!r}")
        for v, c in self.assignment.items():
            if type(c) is not int or not 0 <= c < self.k:
                raise ValidationError(f"color {c!r} of {v} is not an int in 0..{self.k - 1}")

    def colors_used(self) -> int:
        return len(set(self.assignment.values()))


def parse(text: str) -> DirectedHypergraph:
    """Parse the line-oriented .dhg format.

    Lines: ``v <name>`` declares a vertex, ``e <tails…> > <heads…>`` an edge
    (the leading ``e`` may be omitted in hand-written files).  ``#`` starts a
    comment, blank lines are skipped.  Vertex order is: explicitly declared
    vertices in declaration order, then edge-line vertices by first
    appearance, tails before heads within a line.  One pass, linear in the
    length of the text.
    """
    declared: dict[str, None] = {}
    from_edges: dict[str, None] = {}
    edges: list[DirectedEdge] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "v":
            if len(tokens) != 2:
                raise ParseError(f"line {lineno}: vertex line needs exactly one name")
            name = _parse_name(tokens[1], lineno)
            if name in declared:
                raise ParseError(f"line {lineno}: duplicate declaration of {name}")
            declared[name] = None
        elif tokens[0] == "e" or ">" in tokens:
            body = tokens[1:] if tokens[0] == "e" else tokens
            if body.count(">") != 1:
                raise ParseError(f"line {lineno}: edge line needs exactly one '>'")
            # Edge tokens need no name check: after the '#' cut and split()
            # a token is non-empty with no whitespace and no '#', and the
            # only '>' is the cut.  DirectedHypergraph checks every name once.
            cut = body.index(">")
            tails, heads = body[:cut], body[cut + 1:]
            if not tails and not heads:
                raise ParseError(f"line {lineno}: edge has no vertices")
            try:
                edges.append(DirectedEdge(tails, heads))
            except ValidationError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            for name in body:  # the cut '>' too; it is dropped below
                from_edges[name] = None
        else:
            raise ParseError(f"line {lineno}: unrecognized line {line!r}")

    # Dict union keeps the declared names first, then adds the rest in order.
    order = declared | from_edges
    order.pop(">", None)
    try:
        return DirectedHypergraph(tuple(order), tuple(edges))
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


def _parse_name(token: str, lineno: int) -> str:
    try:
        return _check_name(token)
    except ValidationError as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc


def serialize(hg: DirectedHypergraph) -> str:
    """Canonical text form: all v lines, then all e lines, vertex-order sides.

    ``parse(serialize(hg))`` reproduces ``hg`` exactly, including vertex and
    edge order.  The empty hypergraph serializes to the empty string.
    """
    pos = hg.positions
    lines = [f"v {v}" for v in hg.vertices]
    for e in hg.edges:
        tails = " ".join(sorted(e.tail, key=pos.__getitem__))
        heads = " ".join(sorted(e.head, key=pos.__getitem__))
        lines.append(f"e{' ' if tails else ''}{tails} >{' ' if heads else ''}{heads}")
    return "".join(line + "\n" for line in lines)


def normalize(hg: DirectedHypergraph) -> DirectedHypergraph:
    """Drop every edge whose vertex set contains another edge's vertex set.

    Containment is on vertex sets, ignoring head/tail roles; among edges with
    identical vertex sets the first survives.  Any proper coloring of the
    result is a proper coloring of the input, because a dropped edge is a
    superset of a kept one and monochromaticity only depends on vertex sets.
    When no edge is dropped the result is ``hg`` itself.

    ``hg.index.edge_bits`` holds each position's bitset of the edges through
    it, so the edges whose vertex set contains edge i's are the AND of its
    vertices' bitsets: |e| big-int ANDs per edge, with no walk over edge
    pairs.  Edges are visited in order and each one not yet dropped drops
    all its other supersets.  That is the rule above: an edge i still
    standing has no equal copy before it (that copy, or whatever dropped it,
    would have dropped i), and an edge that should go has a kept edge inside
    it, which drops it.
    """
    bits = hg.index.edge_bits
    dropped = 0
    for i, row in enumerate(map(add, hg.index.head_rows, hg.index.tail_rows)):
        if dropped >> i & 1:
            continue
        supersets = bits[row[0]]
        for p in row[1:]:
            supersets &= bits[p]
        dropped |= supersets ^ (1 << i)
    if not dropped:
        return hg  # keeps its cached positions and index; nothing to revalidate
    kept = tuple(e for k, e in enumerate(hg.edges) if not dropped >> k & 1)
    return DirectedHypergraph(hg.vertices, kept)


def is_proper(hg: DirectedHypergraph, coloring: Coloring) -> bool:
    """True iff no edge is monochromatic (roles play no part in properness)."""
    assignment = coloring.assignment
    for v in hg.vertices:
        if v not in assignment:
            raise ValidationError(f"vertex {v} has no color")
    for e in hg.edges:
        it = iter(e.vertices)
        first = assignment[next(it)]
        if all(assignment[v] == first for v in it):
            return False
    return True


def serialize_coloring(hg: DirectedHypergraph, coloring: Coloring) -> str:
    """One line per vertex, ``<name> <color index>``, in vertex order."""
    return "".join(f"{v} {coloring.assignment[v]}\n" for v in hg.vertices)


def parse_coloring(text: str, k: int | None = None) -> Coloring:
    """Read the coloring file format; k defaults to max index + 1."""
    assignment: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected '<name> <color>'")
        name = _parse_name(parts[0], lineno)
        try:
            color = int(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad color index {parts[1]!r}") from exc
        if color < 0:
            raise ParseError(f"line {lineno}: negative color index")
        if name in assignment:
            raise ParseError(f"line {lineno}: {name} colored twice")
        assignment[name] = color
    if k is None:
        k = max(assignment.values(), default=0) + 1
    return Coloring(assignment, k)
