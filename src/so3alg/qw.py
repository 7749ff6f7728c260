"""Graded Q[W]-spaces: the one layer the toral and dihedral models share.

W has order two.  A space is held in eigen form, (plus, minus) dimensions per
degree (``QWSpace``), and an equivariant map as one rational matrix per
(degree, sign) (``VMap``): ``VMap(...)`` checks the blocks' shapes and takes
maps from outside, ``VMap._assembled`` stores one built here unchecked.  Maps
are assembled by blocks in one place, ``block_vmap``, behind block sums and
cone differentials; the W-fixed part of a space or a map is its sign-+ part
(``fixed``); ``qw_homology`` is one ``linalg.chain_homology`` per sign.

``Slots`` holds every per-slot datum of both models: explicit values per slot
key plus one tail, which every unlisted key and ``TAIL`` read.  It alone
reads the tail, unions key sets, fills missing maps with zero and drops the
listed copies of the tail (``Slots.normal_forms``).  This module imports only
``linalg`` and ``errors``.
"""

from __future__ import annotations

from .errors import SchemaError
from .linalg import QMatrix, block_matrix, chain_homology

TAIL = "tail"

# -- graded involution spaces in eigen form ----------------------------------


class QWSpace:
    """A graded Q[W]-space in canonical eigen form: (plus, minus) per degree.

    The basis in each degree is ordered: sign-+ vectors first.  A space keeps
    its two Laurent models once built (``_models``, the memo of
    ``toral.laurent_model``).
    """

    __slots__ = ("dims", "_models")

    def __init__(self, dims: dict[int, tuple[int, int]]):
        self.dims = {g: (p, m) for g, (p, m) in dims.items() if p or m}
        self._models = {}

    @staticmethod
    def zero() -> "QWSpace":
        return QWSpace({})

    def __eq__(self, other):
        return isinstance(other, QWSpace) and self.dims == other.dims

    def __hash__(self):
        return hash(tuple(sorted(self.dims.items())))

    def __repr__(self):
        return f"QWSpace({self.dims})"

    def is_zero(self):
        return not self.dims

    def dim(self, g, sign=None):
        p, m = self.dims.get(g, (0, 0))
        if sign is None:
            return p + m
        return p if sign == 1 else m

    def degrees(self):
        return sorted(self.dims, reverse=True)

    def suspend(self, k):
        return QWSpace({g + k: pm for g, pm in self.dims.items()})

    def twist(self):
        return QWSpace({g: (m, p) for g, (p, m) in self.dims.items()})

    def vectors(self):
        """All (degree, sign, index) basis labels in canonical order."""
        out = []
        for g in self.degrees():
            p, m = self.dims[g]
            out.extend((g, 1, i) for i in range(p))
            out.extend((g, -1, i) for i in range(m))
        return out

    def part(self, sign):
        """The dimension of the sign part in each degree of the space."""
        return {g: self.dim(g, sign) for g in self.dims}

    def fixed(self) -> "QWSpace":
        """The W-fixed part: the sign-+ part, as a space."""
        return QWSpace({g: (p, 0) for g, (p, _m) in self.dims.items()})

    def parity_part(self, parity):
        return QWSpace({g: pm for g, pm in self.dims.items() if g % 2 == parity})


def qw_sum(*spaces: QWSpace) -> QWSpace:
    out = {}
    for v in spaces:
        for g, (p, m) in v.dims.items():
            po, mo = out.get(g, (0, 0))
            out[g] = (po + p, mo + m)
    return QWSpace(out)


class VMap:
    """A degree-t equivariant map between QWSpaces: blocks per (degree, sign)."""

    __slots__ = ("domain", "codomain", "degree", "blocks")

    def __init__(self, domain: QWSpace, codomain: QWSpace, degree: int, blocks):
        for (g, s), mat in blocks.items():
            if (mat.rows, mat.cols) != (codomain.dim(g + degree, s), domain.dim(g, s)):
                raise SchemaError(f"V-map block {(g, s)} has wrong shape")
        self._store(domain, codomain, degree, blocks)

    @staticmethod
    def _assembled(domain: QWSpace, codomain: QWSpace, degree: int, blocks) -> "VMap":
        """A map whose blocks were built here in the shapes its type asks
        for, not checked again; zero blocks are dropped as by ``__init__``."""
        f = VMap.__new__(VMap)
        f._store(domain, codomain, degree, blocks)
        return f

    def _store(self, domain, codomain, degree, blocks):
        self.domain = domain
        self.codomain = codomain
        self.degree = degree
        self.blocks = {key: mat for key, mat in blocks.items() if not mat.is_zero()}

    @staticmethod
    def zero(domain, codomain, degree=0):
        return VMap._assembled(domain, codomain, degree, {})

    @staticmethod
    def identity(v: QWSpace):
        blocks = {}
        for g, (p, m) in v.dims.items():
            if p:
                blocks[(g, 1)] = QMatrix.identity(p)
            if m:
                blocks[(g, -1)] = QMatrix.identity(m)
        return VMap._assembled(v, v, 0, blocks)

    def block(self, g, s):
        mat = self.blocks.get((g, s))
        if mat is None:
            return QMatrix(self.codomain.dim(g + self.degree, s), self.domain.dim(g, s))
        return mat

    def __eq__(self, other):
        return (
            isinstance(other, VMap)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.degree == other.degree
            and self.blocks == other.blocks
        )

    def is_zero(self):
        return not self.blocks

    def is_identity(self):
        """The identity of its domain, block by block: a block of the right
        shape at each nonzero (degree, sign) part, each an identity."""
        return (
            self.degree == 0
            and self.domain == self.codomain
            and len(self.blocks) == sum((p > 0) + (m > 0) for p, m in self.domain.dims.values())
            and all(mat.is_identity() for mat in self.blocks.values())
        )

    def part(self, sign):
        """The nonzero blocks of the sign part, by degree."""
        return {g: mat for (g, s), mat in self.blocks.items() if s == sign}

    def fixed(self) -> "VMap":
        """The restriction to the W-fixed parts: the sign-+ blocks, between
        the fixed parts of the domain and the codomain."""
        return VMap._assembled(
            self.domain.fixed(), self.codomain.fixed(), self.degree,
            {(g, 1): mat for g, mat in self.part(1).items()},
        )

    def compose(self, other: "VMap") -> "VMap":
        if other.codomain != self.domain:
            raise SchemaError("V-map composition mismatch")
        blocks = {}
        for g in other.domain.dims:
            for s in (1, -1):
                # a missing block is zero, and so is any product with it
                right = other.blocks.get((g, s))
                left = self.blocks.get((g + other.degree, s))
                if right is not None and left is not None:
                    blocks[(g, s)] = left @ right
        return VMap._assembled(other.domain, self.codomain, self.degree + other.degree, blocks)

    def __add__(self, other):
        if (other.domain, other.codomain, other.degree) != (self.domain, self.codomain, self.degree):
            raise SchemaError("V-map sum mismatch")
        blocks = {}
        for key in set(self.blocks) | set(other.blocks):
            blocks[key] = self.block(*key) + other.block(*key)
        return VMap._assembled(self.domain, self.codomain, self.degree, blocks)

    def scale(self, k):
        return VMap._assembled(
            self.domain, self.codomain, self.degree,
            {key: mat.scale(k) for key, mat in self.blocks.items()},
        )

    def suspend(self, k):
        return VMap._assembled(
            self.domain.suspend(k), self.codomain.suspend(k), self.degree,
            {(g + k, s): mat for (g, s), mat in self.blocks.items()},
        )

    def twist(self):
        return VMap._assembled(
            self.domain.twist(), self.codomain.twist(), self.degree,
            {(g, -s): mat for (g, s), mat in self.blocks.items()},
        )


def block_vmap(dom: QWSpace, cod: QWSpace, degree: int, doms, cods, pieces) -> VMap:
    """A map dom -> cod of the given degree, by blocks: dom is the sum of the
    spaces doms and cod of cods, and pieces[(i, j)] = (f, shift) places f's
    block at (g + shift, s) in row block i and column block j of the block at
    (g, s).  A missing piece is zero; ``block_matrix`` checks each block's
    shape."""
    parts = {}
    for ij, (f, shift) in pieces.items():
        for (g, s), mat in f.blocks.items():
            parts.setdefault((g - shift, s), {})[ij] = mat
    return VMap._assembled(dom, cod, degree, {
        (g, s): block_matrix([c.dim(g + degree, s) for c in cods], [d.dim(g, s) for d in doms], part)
        for (g, s), part in parts.items()
    })


def vmap_sum(dom: QWSpace, cod: QWSpace, maps) -> VMap:
    """Block-diagonal sum of maps whose domains and codomains add up."""
    return block_vmap(dom, cod, maps[0].degree, [f.domain for f in maps], [f.codomain for f in maps],
                      {(i, i): (f, 0) for i, f in enumerate(maps)})


def qw_homology(space: QWSpace, d: VMap):
    """Homology of a complex of Q[W]-spaces, one ``chain_homology`` per sign:
    (H, data), with data[s] the (hdims, reps, projs) of the sign-s part on the
    degrees of the space.  H is read off ranks; the sign-s basis in degree g
    is built only when data[s][1][g] or data[s][2][g] is read."""
    data = {s: chain_homology(space.part(s), d.part(s)) for s in (1, -1)}
    return QWSpace({g: (data[1][0][g], data[-1][0][g]) for g in space.dims}), data


# -- values per slot ------------------------------------------------------------


class Slots:
    """Values at finitely many listed slot keys, plus one tail value.

    Both models index their data so: the toral one by the cyclic slots
    n >= 1, the dihedral one by the slots k > 2.  This class is the one place
    that reads the tail: ``s[key]`` is the listed value, and the tail at
    every key that is not listed and at TAIL, which is not an index and is
    never listed.  Two instances are equal when they read equal values at
    every key, so listing a copy of the tail changes nothing.
    """

    __slots__ = ("explicit", "tail")

    def __init__(self, explicit: dict, tail):
        self.explicit = dict(explicit)
        self.tail = tail

    @staticmethod
    def keys_of(parts) -> list:
        """The keys that one of parts lists, in order, then TAIL."""
        return sorted({k for p in parts for k in p.explicit}) + [TAIL]

    @staticmethod
    def over(parts, value) -> "Slots":
        """value(key) at each key of ``keys_of(parts)``."""
        listed = sorted({k for p in parts for k in p.explicit})
        return Slots({k: value(k) for k in listed}, value(TAIL))

    @staticmethod
    def fill(parts, given, typ, zero, what: str | None, index=None) -> "Slots":
        """One map at each key of ``keys_of(parts)``, of type typ(key) =
        (domain, codomain, degree): given's there, or ``zero(*typ(key))``
        where given, a dict, has none.  Each given map is checked against its
        type, named what; with what None, given is trusted, and a container is
        taken as it is.  A key that given lists and parts do not is kept when
        index, the model's check of a slot index, passes it (a morphism's
        component there is more than the tails compose to); without index it
        is refused, or with what None dropped."""
        if not isinstance(given, Slots):
            read, listed = given.get, given
        elif what is None:
            return given
        else:
            read, listed = given.__getitem__, given.explicit
        extra = listed.keys() - {TAIL}
        for p in parts:
            extra -= p.explicit.keys()
        if extra and index is not None:
            for k in extra:
                index(k)
            parts = [*parts, Slots(dict.fromkeys(extra), None)]
        elif extra and what is not None:
            raise SchemaError(f"{what} at slot {next(iter(extra))!r}, which the slots do not list")

        def value(key):
            f = read(key)
            if f is None:
                return zero(*typ(key))
            if what is not None and (f.domain, f.codomain, f.degree) != typ(key):
                raise SchemaError(f"{what} at slot {key!r} has wrong type")
            return f

        return Slots.over(parts, value)

    def _copy(self, explicit: dict, tail) -> "Slots":
        """Slots of the same kind with other values."""
        return Slots(explicit, tail)

    @staticmethod
    def normal_forms(*parts) -> list:
        """parts without the listed keys at which each of them holds a copy
        of its tail."""
        keep = {k for p in parts for k, v in p.explicit.items() if v != p.tail}
        return [p._copy({k: v for k, v in p.explicit.items() if k in keep}, p.tail) for p in parts]

    def with_value(self, key, value, keep=()) -> "Slots":
        """A copy that reads value at key.  At TAIL it becomes the tail, and
        the keys in keep are listed with the old tail, so they still read it."""
        explicit = dict(self.explicit)
        if key == TAIL:
            explicit.update((k, self.tail) for k in keep if k not in explicit)
            return self._copy(explicit, value)
        explicit[key] = value
        return self._copy(explicit, self.tail)

    def listing(self, key) -> "Slots":
        """A copy that lists key with the value it reads there."""
        return self.with_value(key, self[key])

    def __getitem__(self, key):
        return self.explicit.get(key, self.tail)

    def keys(self) -> list:
        return sorted(self.explicit) + [TAIL]

    def __iter__(self):
        return iter(self.keys())

    def items(self) -> list:
        return [(k, self[k]) for k in self.keys()]

    def values(self) -> list:
        return [*self.explicit.values(), self.tail]

    def map(self, f) -> "Slots":
        return Slots({k: f(v) for k, v in self.explicit.items()}, f(self.tail))

    def unzip(self) -> list:
        """One Slots per position of the tuples held."""
        return [
            Slots({k: v[i] for k, v in self.explicit.items()}, self.tail[i])
            for i in range(len(self.tail))
        ]

    def __eq__(self, other):
        return isinstance(other, Slots) and all(
            self[k] == other[k] for k in Slots.keys_of([self, other])
        )
