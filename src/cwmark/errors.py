"""Exception types raised by cwmark, and the decorator of its records.

Everything derives from CwmarkError; most classes also derive from
ValueError so callers that only care about "bad input" can catch that.

_record makes a class with annotated fields a frozen record, as
@dataclass(frozen=True) would, without importing dataclasses (which
loads inspect, ast and dis) or compiling methods with exec. Every
module that defines a record already imports this one, so the CLI's
children start without either cost.
"""


class CwmarkError(Exception):
    """Base class for all cwmark errors."""


# --- codec ---------------------------------------------------------------

class CapacityError(CwmarkError, ValueError):
    """Message index does not fit the code: B >= binomial(L, alpha)."""


class MessageRangeError(CwmarkError, ValueError):
    """Integer does not fit in k bits (B >= 2**k)."""


class MalformedCodewordError(CwmarkError, ValueError):
    """Codeword has the wrong length or a Hamming weight other than alpha."""


# --- threshold design ----------------------------------------------------

class ThresholdDesignError(CwmarkError, ValueError):
    """Threshold formula produced a non-positive T1.

    Happens for one-sided designs with rate <= 0.5; pick a larger rate or
    set the thresholds explicitly.
    """


# --- position selection --------------------------------------------------

class SelectionRatioError(CwmarkError, ValueError):
    """Selected positions are too dense relative to the host vector."""


class PositionRangeError(CwmarkError, ValueError):
    """A spec position index falls outside the paired weight vector."""


# --- weight files ---------------------------------------------------------

class WeightFileError(CwmarkError, ValueError):
    """Base class for weight-file parse errors."""


class BadMagicError(WeightFileError):
    """File does not start with the expected magic bytes."""


class UnsupportedVersionError(WeightFileError):
    """File declares a format version this reader does not support."""


class TruncatedPayloadError(WeightFileError):
    """File is shorter than its header declares."""


class TrailingDataError(WeightFileError):
    """File is longer than its header declares."""


class NonFiniteWeightError(WeightFileError):
    """Weight payload contains NaN or infinity."""


# --- spec files -----------------------------------------------------------

class SpecFormatError(CwmarkError, ValueError):
    """Spec document is syntactically or structurally invalid."""


# --- records --------------------------------------------------------------

def _record(cls):
    """cls as a frozen record of the fields its own annotations name, in order.

    It installs the dataclass's __init__ (positional or keyword arguments,
    set with object.__setattr__, then __post_init__ if cls has one), __eq__
    (only with the same class), __hash__ (of the field values), __repr__
    (the dataclass's text), __match_args__, and a __setattr__ and
    __delattr__ that raise AttributeError.
    """
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    post_init = getattr(cls, "__post_init__", None)

    def values(self):
        return tuple(getattr(self, name) for name in fields)

    def __init__(self, *args, **kwargs):
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__name__}() takes {len(fields)} arguments, {len(args)} given"
            )
        given = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected argument {name!r}")
            if name in given:
                raise TypeError(f"{cls.__name__}() got two values for {name!r}")
            given[name] = value
        missing = [name for name in fields if name not in given]
        if missing:
            raise TypeError(f"{cls.__name__}() missing arguments: {', '.join(missing)}")
        for name in fields:
            object.__setattr__(self, name, given[name])
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = fields
    return cls
