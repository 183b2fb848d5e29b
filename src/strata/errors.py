"""Exception hierarchy shared by the whole package."""


class StrataError(Exception):
    """Base class for all library errors."""


class InputError(StrataError):
    """Malformed user input (spec files, CLI arguments)."""


class DimensionMismatch(StrataError):
    pass


class FieldMismatch(StrataError):
    pass


class NotFiniteDimensionalWithinBound(StrataError):
    """A path of length max_path_length survives modulo the relation ideal."""


class MalformedRelation(StrataError):
    pass


class NotIdempotent(StrataError):
    pass


class NotIdempotentSum(StrataError):
    """The element is not a subset-sum of the distinguished idempotent family."""


class NotUnital(StrataError):
    pass


class RadicalUnsupportedCharacteristic(StrataError):
    pass


class InvariantViolation(StrataError):
    """An internal cross-check failed: a library bug, never a property of the input."""


class InvalidAlgebra(StrataError):
    """Structure-constant data fails an algebra axiom."""


class InvalidModule(StrataError):
    pass


class NotInSubspace(StrataError):
    """A vector that must lie in a subspace (an image under a module action,
    a product in a closed span) does not."""


class NotAntisymmetric(StrataError):
    """Generated order relation has a nontrivial cycle."""


class SupportNotCoideal(StrataError):
    pass


class NotBasic(StrataError):
    pass


class NotQuasiHereditary(StrataError):
    pass


class UnsupportedField(StrataError):
    pass


class UnknownLabel(StrataError):
    pass
