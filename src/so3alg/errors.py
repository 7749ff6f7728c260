"""Exception hierarchy for the engine.

The CLI maps these onto its exit codes: schema problems exit 2, violated
structural invariants exit 3, fixture mismatches exit 4.
"""


class EngineError(Exception):
    """Base class for all engine errors."""


class SchemaError(EngineError):
    """Malformed input: bad JSON shape, bad rational literal, bad reference."""


class InvariantError(EngineError):
    """A structural invariant of the algebra is violated."""


class NotHomogeneous(InvariantError):
    """A map entry does not respect the grading."""


class NotEquivariant(InvariantError):
    """A map entry does not respect the involution."""


class NotADifferential(InvariantError):
    """Candidate differential fails d*d = 0 or the commutation rule."""


class NotAMorphism(InvariantError):
    """A candidate morphism fails to commute with its objects' germ maps."""


class NotTorsion(InvariantError):
    """A torsion module was required but a free or Laurent part is present."""


class StarConditionError(InvariantError):
    """An object fails the localization-isomorphism condition."""


class ParseError(SchemaError):
    """An input file could not be parsed; carries file context."""


class BadIndex(SchemaError):
    """A slot index outside the allowed range."""


class BadClass(SchemaError):
    """An unknown conjugacy class name."""


class AlgebraMismatch(SchemaError):
    """An operation combined complexes over different group algebras."""


class WrongAlgebraForClass(SchemaError):
    """A product component is not over the Weyl algebra of its class."""


class FixtureMismatch(EngineError):
    """A recomputed value differs from its frozen fixture."""
