"""Directed hypergraph data model, text format, and proper-coloring check.

A directed hypergraph is a finite ordered vertex sequence plus a sequence of
hyperedges, each partitioned into a tail set and a head set.  All values here
are immutable after construction; every operation is a pure function.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from itertools import chain, combinations
from operator import add, attrgetter
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


_setattr = object.__setattr__  # bypasses the frozen values' __setattr__


class FrozenInstanceError(AttributeError):
    """An attribute of an immutable value was assigned or deleted."""


class Value:
    """Base of the package's value classes.

    A subclass names its fields, in order, in ``_fields`` and sets them in
    its own ``__init__`` through ``_setattr``.  Instances are equal when
    they are of the same class and their fields are equal (any other class
    gets ``NotImplemented``), hash as the tuple of their fields, print as
    ``Name(field=value, ...)`` and are frozen: assigning or deleting any
    attribute raises ``FrozenInstanceError``.  ``class C(Value,
    frozen=False)`` declares a mutable, unhashable record instead.  An
    instance with a ``__dict__`` pickles and copies as any object does, as
    pickle fills ``__dict__`` without calling ``__setattr__``; a subclass
    with ``__slots__`` writes a ``__reduce__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Called with an instance, the fields' values as a tuple (attrgetter
        # returns a tuple for two or more names; every value has at least two).
        cls._values = attrgetter(*cls._fields)
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class DirectedEdge(Value):
    """One hyperedge: disjoint tail and head vertex sets, union non-empty.

    ``vertices`` (tail | head) is computed once at construction.
    """

    __slots__ = ("tail", "head", "vertices")
    _fields = ("tail", "head")
    tail: frozenset[str]
    head: frozenset[str]

    def __init__(self, tail: Iterable[str], head: Iterable[str]) -> None:
        # frozenset() of a frozenset is the same object, so sides that are
        # already frozen cost nothing here.
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

    def __reduce__(self):
        # Slots would be restored through the frozen __setattr__; rebuilding
        # from the fields also recomputes vertices.
        return DirectedEdge, (self.tail, self.head)


edge = DirectedEdge  # the short name; it takes any iterables of vertex names


class HypergraphIndex:
    """A hypergraph's edges by vertex position (``hg.index``); the vertex at
    position p is bit p of every mask.  ``head_rows[k]`` and ``tail_rows[k]``
    hold the positions of edge k's heads and tails, each once.  A hypergraph
    builds its index as it is built (``DirectedHypergraph._of``, or its
    constructor): ``parse`` lists the rows in the order the names are
    written on the edge line, the generators in ascending order, and the
    constructor in its records' frozensets' iteration order, which follows
    the string hash, so nothing may depend on the order inside a row.  Each
    other view is built from the rows on first use and cached
    (``functools.cached_property``): ``head_masks``, ``tail_masks`` and
    ``masks`` give each edge's bitmask of its heads, its tails and all its
    vertices; ``heads_at``, ``tails_at`` and ``edges_at`` give for each
    position the ascending indices of the edges it heads, is a tail of, or
    lies in; ``pairs`` files the edges under their vertex pairs instead
    and says in which role classes two edges share a pair (``PairKeys``).
    No view builds a ``DirectedEdge``.  It keeps no reference to the
    hypergraph, so both are freed by reference counting alone.
    """

    def __init__(self, n: int, head_rows: list[tuple[int, ...]],
                 tail_rows: list[tuple[int, ...]]) -> None:
        self.n = n
        self.head_rows = head_rows
        self.tail_rows = tail_rows

    @cached_property
    def head_masks(self) -> list[int]:
        return _row_masks(self.head_rows)

    @cached_property
    def tail_masks(self) -> list[int]:
        return _row_masks(self.tail_rows)

    @cached_property
    def masks(self) -> list[int]:
        return [h | t for h, t in zip(self.head_masks, self.tail_masks)]

    @cached_property
    def heads_at(self) -> list[list[int]]:
        return file_under_keys(self.head_rows, [[] for _ in range(self.n)])

    @cached_property
    def tails_at(self) -> list[list[int]]:
        return file_under_keys(self.tail_rows, [[] for _ in range(self.n)])

    @cached_property
    def edges_at(self) -> list[list[int]]:
        return file_under_keys(map(add, self.head_rows, self.tail_rows), [[] for _ in range(self.n)])

    @cached_property
    def pairs(self) -> PairKeys:
        return PairKeys(self)


# Role classes of a shared vertex or vertex pair: a head of both edges, a
# tail of both, or a head of one and a tail of the other.  At a pair, a pair
# of two tails counts as a tail and a pair holding a head as a head.
HEAD_HEAD, TAIL_TAIL, HEAD_TAIL = 1, 2, 4


class PairKeys:
    """Every edge's vertex pairs as keys p * n + q (positions p < q), laid
    out as in HypergraphIndex (``index.pairs``): ``tail_rows[k]`` holds
    each pair of edge k's tails, ``head_rows[k]`` each pair holding one of
    its heads.  A key appears at most once in an edge's two rows, so a key
    repeated in the rows is held by two edges.

    ``meets`` is the mask of role classes in which two edges hold one key:
    HEAD_HEAD when a headed pair repeats, TAIL_TAIL when a tail pair
    repeats, HEAD_TAIL when a headed pair is also a tail pair.  It is
    computed with the rows, by three set operations over them, so a caller
    can read it before it builds or walks any list.  ``heads_at`` and
    ``tails_at`` give for each key the ascending indices of the edges
    holding it as a headed pair or as a tail pair; each is built on first
    use and kept.
    """

    def __init__(self, index: HypergraphIndex) -> None:
        n = index.n
        self.head_rows: list[list[int]] = []
        self.tail_rows: list[list[int]] = []
        for hs, ts in zip(index.head_rows, index.tail_rows):
            self.tail_rows.append([p * n + q for p, q in combinations(sorted(ts), 2)])
            row = [p * n + q for p, q in combinations(sorted(hs), 2)] if len(hs) > 1 else []
            for h in hs:
                for t in ts:
                    row.append(h * n + t if h < t else t * n + h)
            self.head_rows.append(row)
        heads = set(chain.from_iterable(self.head_rows))
        tails = set(chain.from_iterable(self.tail_rows))
        self.meets = ((HEAD_HEAD if len(heads) < sum(map(len, self.head_rows)) else 0)
                      | (TAIL_TAIL if len(tails) < sum(map(len, self.tail_rows)) else 0)
                      | (HEAD_TAIL if not heads.isdisjoint(tails) else 0))

    @cached_property
    def heads_at(self) -> defaultdict[int, list[int]]:
        return file_under_keys(self.head_rows, defaultdict(list))

    @cached_property
    def tails_at(self) -> defaultdict[int, list[int]]:
        return file_under_keys(self.tail_rows, defaultdict(list))


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


class DirectedHypergraph(Value):
    """Ordered vertex sequence plus edge sequence.

    The vertex ordering is part of the value: the coloring algorithms are
    stated for an arbitrary but fixed ordering, and freezing it makes runs
    deterministic and reproducible.  ``positions`` (vertex name to position)
    and ``index`` (a ``HypergraphIndex``) are not fields, so neither takes
    part in ``==``, ``hash`` or ``repr``.

    Every hypergraph holds ``positions`` and ``index`` from the moment it
    exists, and ``_of`` is the one place that assembles them from position
    rows.  ``parse``, ``normalize``, ``augment_i0`` and the generators hand
    ``_of`` the rows, and ``edges`` is built from them on first read and
    kept.  The constructor takes ``DirectedEdge`` records, checks them and
    the names, and builds ``positions`` and the index's rows from them.
    Both give one value.  ``==``, ``hash``, ``repr`` and
    ``with_vertex_order`` read ``edges``, so on a hypergraph built from rows
    they build its records; pickling and copying keep the records only if
    they were built.  ``serialize``, ``is_two_to_one``, ``is_proper``,
    ``normalize``, the pattern checks, the colorings and the solver read
    ``index`` alone, so ``dhcolor check``, ``color``, ``chromatic`` and
    ``gen`` and a fuzz trial build no record.
    """

    _fields = ("vertices", "edges")
    vertices: tuple[str, ...]

    def __init__(self, vertices: Iterable[str], edges: Iterable[DirectedEdge]) -> None:
        _setattr(self, "vertices", tuple(vertices))
        _setattr(self, "edges", tuple(edges))
        positions = {}
        for p, v in enumerate(self.vertices):
            _check_name(v)
            if v in positions:
                raise ValidationError(f"duplicate vertex: {v}")
            positions[v] = p
        _setattr(self, "positions", positions)  # not a field, like DirectedEdge.vertices
        # A subset test against a set takes CPython's fast path; against
        # positions.keys() it is about twice as slow.
        names = set(positions)
        for idx, e in enumerate(self.edges):
            if not e.vertices <= names:
                missing = ",".join(sorted(map(str, e.vertices - names)))
                raise ValidationError(f"edge {idx} uses undeclared vertices: {missing}")
        get = positions.__getitem__
        _setattr(self, "index", HypergraphIndex(self.n, [tuple(map(get, e.head)) for e in self.edges],
                                                [tuple(map(get, e.tail)) for e in self.edges]))

    @classmethod
    def _of(cls, vertices: tuple[str, ...], head_rows: list[tuple[int, ...]],
            tail_rows: list[tuple[int, ...]]) -> DirectedHypergraph:
        """The hypergraph on vertices whose edge k has heads head_rows[k] and
        tails tail_rows[k], as positions, unchecked: the names must be valid
        and distinct, and each row must hold distinct positions below
        len(vertices), with an edge's two rows disjoint and not both empty.
        It builds ``positions`` and ``index``; no ``DirectedEdge`` is built."""
        hg = cls.__new__(cls)
        _setattr(hg, "vertices", vertices)
        _setattr(hg, "positions", dict(zip(vertices, range(len(vertices)))))
        _setattr(hg, "index", HypergraphIndex(len(vertices), head_rows, tail_rows))
        return hg

    @cached_property
    def edges(self) -> tuple[DirectedEdge, ...]:
        name = self.vertices.__getitem__
        index = self.index
        return tuple(DirectedEdge(map(name, tails), map(name, heads))
                     for heads, tails in zip(index.head_rows, index.tail_rows))

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
    index = hg.index
    return all(len(h) == 1 and len(t) == 2 for h, t in zip(index.head_rows, index.tail_rows))


class Coloring(Value):
    """Total assignment of color indices 0..k-1 to vertex names."""

    _fields = ("assignment", "k")
    assignment: dict[str, int]
    k: int

    def __init__(self, assignment: Mapping[str, int], k: int) -> None:
        _setattr(self, "assignment", dict(assignment))
        _setattr(self, "k", k)
        # Only ints (not bools or floats) come back from the text form as they went in.
        if type(k) is not int or k < 1:
            raise ValidationError(f"a coloring needs an int count of colors >= 1, not {k!r}")
        for v, c in self.assignment.items():
            if type(c) is not int or not 0 <= c < k:
                raise ValidationError(f"color {c!r} of {v} is not an int in 0..{k - 1}")

    def colors_used(self) -> int:
        return len(set(self.assignment.values()))


def parse(text: str) -> DirectedHypergraph:
    """Parse the line-oriented .dhg format.

    Lines: ``v <name>`` declares a vertex, ``e <tails…> > <heads…>`` an edge
    (the leading ``e`` may be omitted in hand-written files).  A line holding
    the token ``>`` is an edge line, so ``v b > c`` is the edge with tails v
    and b; a line whose first token is ``e`` always takes it as the keyword,
    so an edge whose first tail is named e is written ``e e b > c``.  ``#``
    starts a comment, blank lines are skipped.  Vertex order is: explicitly
    declared vertices in declaration order, then edge-line vertices by first
    appearance, tails before heads within a line.

    Each line is split into tokens once and checked in line order, so the
    first bad line is the one reported.  After the last line the vertex
    order is fixed and each edge line's names become head and tail position
    rows, which the hypergraph's ``index`` holds; no ``DirectedEdge`` is
    built until ``edges`` is read.  Linear in the length of the text.
    """
    declared: dict[str, None] = {}
    written: list[str] = []  # the edge lines' tokens, in order, cuts included
    cuts: list[int] = []  # where in written each edge line's '>' is
    ends: list[int] = []  # where in written each edge line ends

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        # No token needs a name check: after the '#' cut and split() a token
        # is non-empty with no whitespace and no '#', a '>' makes the line an
        # edge line, and its only '>' is the cut.
        first = tokens[0]
        if first == "e" or ">" in tokens:
            body = tokens[1:] if first == "e" else tokens
            if body.count(">") != 1:
                raise ParseError(f"line {lineno}: edge line needs exactly one '>'")
            if len(body) == 1:
                raise ParseError(f"line {lineno}: edge has no vertices")
            cut = body.index(">")
            if len(set(body)) != len(body):
                # A name written twice on one side is one vertex, on both
                # sides an error.  Each side keeps its names' first
                # appearances in order, so the vertex order is unchanged.
                tails, heads = list(dict.fromkeys(body[:cut])), list(dict.fromkeys(body[cut + 1:]))
                overlap = set(tails).intersection(heads)
                if overlap:
                    raise ParseError(f"line {lineno}: head and tail overlap on "
                                     f"{{{','.join(sorted(overlap))}}}")
                body = tails + [">"] + heads
                cut = len(tails)
            cuts.append(len(written) + cut)
            written += body
            ends.append(len(written))
        elif first == "v":
            if len(tokens) != 2:
                raise ParseError(f"line {lineno}: vertex line needs exactly one name")
            name = tokens[1]
            if name in declared:
                raise ParseError(f"line {lineno}: duplicate declaration of {name}")
            declared[name] = None
        else:
            line = raw.split("#", 1)[0].strip()
            raise ParseError(f"line {lineno}: unrecognized line {line!r}")

    # Dict union keeps the declared names first, then adds the rest in order.
    order = declared | dict.fromkeys(written)
    order.pop(">", None)
    vertices = tuple(order)
    positions = dict(zip(vertices, range(len(vertices))))
    at = tuple(map(positions.get, written))  # None at each cut; its slices are tuples
    tail_rows = [at[start:cut] for start, cut in zip([0, *ends], cuts)]
    head_rows = [at[cut + 1:end] for cut, end in zip(cuts, ends)]
    return DirectedHypergraph._of(vertices, head_rows, tail_rows)


def _parse_name(token: str, lineno: int) -> str:
    try:
        return _check_name(token)
    except ValidationError as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc


def serialize(hg: DirectedHypergraph) -> str:
    """Canonical text form: all v lines, then all e lines, vertex-order sides.

    ``parse(serialize(hg))`` reproduces ``hg`` exactly, including vertex and
    edge order.  The empty hypergraph serializes to the empty string.  The
    e lines are written from ``hg.index``'s rows, each sorted by position,
    as the order inside a row is not fixed; no ``DirectedEdge`` is built.
    """
    name = hg.vertices.__getitem__
    index = hg.index
    lines = [f"v {v}" for v in hg.vertices]
    for heads, tails in zip(index.head_rows, index.tail_rows):
        lines.append(" ".join(["e", *map(name, sorted(tails)), ">", *map(name, sorted(heads))]))
    return "".join(line + "\n" for line in lines)


def normalize(hg: DirectedHypergraph) -> DirectedHypergraph:
    """Drop every edge whose vertex set contains another edge's vertex set.

    Containment is on vertex sets, ignoring head/tail roles; among edges with
    identical vertex sets the first survives.  Any proper coloring of the
    result is a proper coloring of the input, because a dropped edge is a
    superset of a kept one and monochromaticity only depends on vertex sets.
    When no edge is dropped the result is ``hg`` itself; otherwise it is
    built from the kept edges' position rows, and builds no record until
    its ``edges`` is read.  It walks no edge pairs, on either of two paths.

    When every edge has one size, as on 2->1 inputs, one vertex set can
    contain another only by being equal to it, so the first edge of each
    mask in ``hg.index.masks`` is kept and the rest dropped: one hash of each
    mask.

    Otherwise it builds each position's bitset of the edges through it from
    ``hg.index.edges_at``, so the edges whose vertex set contains edge i's
    are the AND of its vertices' bitsets: |e| big-int ANDs per edge.  Edges
    are visited in order and each one not yet dropped drops all its other
    supersets.  That is the rule above: an edge i still standing has no
    equal copy before it (that copy, or whatever dropped it, would have
    dropped i), and an edge that should go has a kept edge inside it, which
    drops it.
    """
    index = hg.index
    masks = index.masks
    if len(set(map(int.bit_count, masks))) < 2:
        if len(set(masks)) == len(masks):
            return hg  # keeps its positions and index; nothing to revalidate
        # Read in reverse, each mask's entry ends up with its first edge.
        first = dict(zip(reversed(masks), range(len(masks) - 1, -1, -1)))
        kept = sorted(first.values())
    else:
        bits = _row_masks(index.edges_at)
        dropped = 0
        for i, row in enumerate(map(add, index.head_rows, index.tail_rows)):
            if dropped >> i & 1:
                continue
            supersets = bits[row[0]]
            for p in row[1:]:
                supersets &= bits[p]
            dropped |= supersets ^ (1 << i)
        if not dropped:
            return hg
        kept = [k for k in range(len(masks)) if not dropped >> k & 1]
    return DirectedHypergraph._of(hg.vertices, [index.head_rows[k] for k in kept],
                                  [index.tail_rows[k] for k in kept])


def is_proper(hg: DirectedHypergraph, coloring: Coloring) -> bool:
    """True iff no edge is monochromatic (roles play no part in properness).

    Each color's vertices become one mask of positions, and an edge is
    monochromatic when its mask from ``hg.index`` lies inside one of them.
    """
    assignment = coloring.assignment
    classes: dict[int, int] = {}
    for p, v in enumerate(hg.vertices):
        if v not in assignment:
            raise ValidationError(f"vertex {v} has no color")
        c = assignment[v]
        classes[c] = classes.get(c, 0) | 1 << p
    masks = hg.index.masks
    for cls in classes.values():
        outside = ~cls
        if not all(mask & outside for mask in masks):
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
        color = parts[1]
        digits = color.removeprefix("-")
        # ASCII decimal digits only: int() would also read "1_0", "+1" and
        # other scripts' digits
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(f"line {lineno}: bad color index {color!r}")
        if digits != color:
            raise ParseError(f"line {lineno}: negative color index")
        if name in assignment:
            raise ParseError(f"line {lineno}: {name} colored twice")
        assignment[name] = int(color)
    if k is None:
        k = max(assignment.values(), default=0) + 1
    return Coloring(assignment, k)
