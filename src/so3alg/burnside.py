"""Rational Burnside rings of SO(3) and O(2) as locally constant functions.

The rational Burnside ring of a compact Lie group G is the ring of continuous
(= locally constant) rational functions on the orbit space of the space of
closed subgroups with finite Weyl group.  For the two groups handled here the
orbit spaces are

- SO(3): five isolated points (the full group, the rotation groups of the
  octahedron, tetrahedron and icosahedron, and the Klein four-group), one
  isolated maximal-torus point, and a sequence of dihedral points of order
  2n for n >= 3 converging to the limit point O(2);
- O(2): one isolated circle point and dihedral points of order 2n for
  n >= 1 converging to O(2).

An element is stored as: values at the isolated exceptional points, a value
at the torus point, finitely many explicit dihedral values, and a tail value
taken at all remaining dihedral points and at the O(2) limit.  Continuity at
the limit point is exactly the statement that only finitely many dihedral
values differ from the tail value, which this representation enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SchemaError
from .linalg import Q
from .literals import frac_parse, int_key

EXCEPTIONAL_SO3 = ("SO3", "Sigma4", "A4", "A5", "D4")

# Smallest dihedral order 2n that is a point of the dihedral sequence.
_MIN_N = {"SO3": 3, "O2": 1}


def _q(x) -> Fraction:
    """x if it is a Fraction; otherwise a document's rational literal."""
    return x if isinstance(x, Fraction) else frac_parse(x)


@dataclass(frozen=True)
class SubgroupClass:
    """A point of the subgroup orbit space.

    kind is one of "exceptional" (name field set), "toral",
    "dihedral" (n field set, the point of order 2n), or "limit" (O(2)).
    """

    group: str
    kind: str
    name: str | None = None
    n: int | None = None

    def __post_init__(self):
        if self.group not in ("SO3", "O2"):
            raise SchemaError(f"unknown group {self.group!r}")
        if self.kind == "exceptional":
            if self.group != "SO3" or self.name not in EXCEPTIONAL_SO3:
                raise SchemaError(f"bad exceptional class {self.name!r}")
        elif self.kind == "dihedral":
            if self.n is None or self.n < _MIN_N[self.group]:
                raise SchemaError(f"bad dihedral index {self.n!r} for {self.group}")
        elif self.kind not in ("toral", "limit"):
            raise SchemaError(f"unknown class kind {self.kind!r}")


@dataclass(frozen=True)
class BurnsideElement:
    """A locally constant rational function on the subgroup orbit space."""

    group: str
    exceptional: tuple[tuple[str, Fraction], ...] = ()
    toral: Fraction = Q(0)
    dihedral: tuple[tuple[int, Fraction], ...] = ()
    tail: Fraction = Q(0)

    @staticmethod
    def make(group, exceptional=None, toral=0, dihedral=None, tail=0) -> "BurnsideElement":
        if group not in ("SO3", "O2"):
            raise SchemaError(f"unknown group {group!r}")
        exc = dict.fromkeys(EXCEPTIONAL_SO3, Q(0)) if group == "SO3" else {}
        for k, v in (exceptional or {}).items():
            if k not in exc:
                raise SchemaError(f"bad exceptional key {k!r} for {group}")
            exc[k] = _q(v)
        tail_q = _q(tail)
        dih = {}
        for k, v in (dihedral or {}).items():
            k = int(k)
            if k < _MIN_N[group]:
                raise SchemaError(f"dihedral index {k} out of range for {group}")
            v = _q(v)
            if v != tail_q:
                dih[k] = v
        return BurnsideElement(
            group=group,
            exceptional=tuple(sorted(exc.items())),
            toral=_q(toral),
            dihedral=tuple(sorted(dih.items())),
            tail=tail_q,
        )

    # -- access ---------------------------------------------------------

    def value_at(self, cls: SubgroupClass) -> Fraction:
        if cls.group != self.group:
            raise SchemaError("group mismatch")
        if cls.kind == "exceptional":
            return dict(self.exceptional)[cls.name]
        if cls.kind == "toral":
            return self.toral
        if cls.kind == "limit":
            return self.tail
        return dict(self.dihedral).get(cls.n, self.tail)

    # -- ring structure ---------------------------------------------------

    def _pointwise(self, other: "BurnsideElement", op) -> "BurnsideElement":
        if not isinstance(other, BurnsideElement) or other.group != self.group:
            raise SchemaError("group mismatch in ring operation")
        se, oe = dict(self.exceptional), dict(other.exceptional)
        ns = set(dict(self.dihedral)) | set(dict(other.dihedral))
        sd, od = dict(self.dihedral), dict(other.dihedral)
        return BurnsideElement.make(
            self.group,
            exceptional={k: op(se[k], oe[k]) for k in se},
            toral=op(self.toral, other.toral),
            dihedral={n: op(sd.get(n, self.tail), od.get(n, other.tail)) for n in ns},
            tail=op(self.tail, other.tail),
        )

    def __add__(self, other):
        return self._pointwise(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._pointwise(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._pointwise(other, lambda a, b: a * b)

    def scale(self, k) -> "BurnsideElement":
        k = _q(k)
        return BurnsideElement.make(
            self.group,
            exceptional={n: k * v for n, v in self.exceptional},
            toral=k * self.toral,
            dihedral={n: k * v for n, v in self.dihedral},
            tail=k * self.tail,
        )

    def is_idempotent(self) -> bool:
        return self * self == self


def unit(group: str) -> BurnsideElement:
    exc = {k: 1 for k in EXCEPTIONAL_SO3} if group == "SO3" else {}
    return BurnsideElement.make(group, exceptional=exc, toral=1, tail=1)


def zero(group: str) -> BurnsideElement:
    return BurnsideElement.make(group)


def idempotent(group: str, which: str, n: int | None = None) -> BurnsideElement:
    """Characteristic function of a clopen subset.

    which: an exceptional name, "T" (the torus point), "D" (the whole
    dihedral part including the O(2) limit), or "D2n" with n supplied (the
    single dihedral point of order 2n, which is isolated hence clopen).
    The singleton of the O(2) limit is not open and has no idempotent.
    """
    if which == "T":
        return BurnsideElement.make(group, toral=1)
    if which == "D":
        return BurnsideElement.make(group, tail=1)
    if which == "D2n":
        if n is None or n < _MIN_N[group]:
            raise SchemaError(f"bad dihedral index {n!r}")
        return BurnsideElement.make(group, dihedral={n: 1})
    if group == "SO3" and which in EXCEPTIONAL_SO3:
        return BurnsideElement.make(group, exceptional={which: 1})
    raise SchemaError(f"no idempotent {which!r} for {group}")


def restrict_to_O2(x: BurnsideElement) -> BurnsideElement:
    """Restriction along the inclusion of O(2) in SO(3).

    On subgroup classes: the circle and the order-2 dihedral class of O(2)
    both become the torus class of SO(3) (a reflection is conjugate in SO(3)
    to a rotation of order 2); the order-4 dihedral class becomes the
    exceptional Klein four class; higher dihedral classes and the limit map
    to their counterparts.
    """
    if x.group != "SO3":
        raise SchemaError("restriction is defined on SO(3) elements")
    exc = dict(x.exceptional)
    dih = dict(x.dihedral)
    d = {1: x.toral, 2: exc["D4"]}
    for n, v in dih.items():
        d[n] = v
    return BurnsideElement.make("O2", toral=x.toral, dihedral=d, tail=x.tail)


def split_exceptional(x: BurnsideElement) -> dict:
    """Split off the five isolated exceptional components.

    Returns the components as a dict of elements supported at single points,
    together with the remaining toral and dihedral part under keys "T" and
    "D".  The sum of all parts is x.
    """
    if x.group != "SO3":
        raise SchemaError("exceptional splitting is defined on SO(3) elements")
    parts = {}
    for name, v in x.exceptional:
        parts[name] = BurnsideElement.make("SO3", exceptional={name: v})
    parts["T"] = BurnsideElement.make("SO3", toral=x.toral)
    parts["D"] = BurnsideElement.make(
        "SO3", dihedral={n: v for n, v in x.dihedral}, tail=x.tail
    )
    return parts


# -- JSON (de)serialization -------------------------------------------------


def to_json(x: BurnsideElement) -> dict:
    return {
        "group": x.group,
        "exceptional": {k: str(v) for k, v in x.exceptional},
        "toral": str(x.toral),
        "dihedral": {str(n): str(v) for n, v in x.dihedral},
        "tail": str(x.tail),
    }


def from_json(doc: dict) -> BurnsideElement:
    if not isinstance(doc, dict) or "group" not in doc:
        raise SchemaError("burnside element document must be a dict with 'group'")
    exc, dih = doc.get("exceptional", {}), doc.get("dihedral", {})
    if not isinstance(exc, dict) or not isinstance(dih, dict):
        raise SchemaError("'exceptional' and 'dihedral' must be JSON objects")
    return BurnsideElement.make(
        doc["group"],
        exceptional=exc,
        toral=doc.get("toral", 0),
        dihedral={int_key(k, "dihedral key"): v for k, v in dih.items()},
        tail=doc.get("tail", 0),
    )
