"""Exception types for the groupoid toolkit.

Errors that carry witnesses name arrows and objects by their labels, never
by internal indices, so messages can be surfaced to users unchanged.
"""

from __future__ import annotations

import reprlib
import sys

_ECHO = reprlib.Repr()
_ECHO.maxlevel = 2
_ECHO.maxstring = _ECHO.maxother = 60
_ECHO.maxlist = _ECHO.maxtuple = _ECHO.maxdict = _ECHO.maxset = 4
_ECHO_CHARS = 120


def _clip(text: str, limit: int = _ECHO.maxstring) -> str:
    """``text`` cut to at most ``limit`` characters, for a label shown unquoted."""
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _echo(value) -> str:
    """Repr of a value taken from outside input, bounded in length, so an
    error message never repeats a whole document back."""
    return _clip(_ECHO.repr(value), _ECHO_CHARS)


def _number(render, value) -> str:
    """``render(value)`` cut like a label, for a number in witness or error
    text; past the int-to-str digit limit, the limit stands in for it."""
    try:
        return _clip(render(value))
    except ValueError:
        return f"<a number of more than {sys.get_int_max_str_digits()} digits>"


class GrpdError(Exception):
    """Base class for every error raised by this package."""


class CapExceeded(GrpdError):
    """A structure exceeds the configured size caps."""


# --- groupoid construction and validation ---------------------------------


class GroupoidError(GrpdError):
    pass


class DanglingReference(GroupoidError):
    def __init__(self, kind: str, label: str, detail: str = "unknown") -> None:
        super().__init__(f"{detail} {kind} label {_echo(label)}")
        self.kind = kind
        self.label = label


class MissingIdentity(GroupoidError):
    def __init__(self, obj: str, detail: str = "no neutral arrow") -> None:
        super().__init__(f"object {_echo(obj)}: {detail}")
        self.object = obj


class NotAssociative(GroupoidError):
    def __init__(self, g: str, h: str, k: str) -> None:
        super().__init__(f"associativity fails at ({_echo(g)}, {_echo(h)}, {_echo(k)})")
        self.witness = (g, h, k)


class BadInverse(GroupoidError):
    def __init__(self, g: str, detail: str) -> None:
        super().__init__(f"arrow {_echo(g)}: {detail}")
        self.arrow = g


class BadCompositionDomain(GroupoidError):
    def __init__(self, g: str, h: str, detail: str) -> None:
        super().__init__(f"pair ({_echo(g)}, {_echo(h)}): {detail}")
        self.witness = (g, h)


class NotComposable(GroupoidError):
    def __init__(self, g: str, h: str) -> None:
        super().__init__(f"arrows {_echo(g)} and {_echo(h)} are not composable")
        self.witness = (g, h)


class UnknownObject(GroupoidError):
    def __init__(self, label: str) -> None:
        super().__init__(f"unknown object {_echo(label)}")
        self.label = label


class UnknownArrow(GroupoidError):
    def __init__(self, label: str) -> None:
        super().__init__(f"unknown arrow {_echo(label)}")
        self.label = label


class BadParams(GroupoidError):
    pass


# --- homomorphisms and congruences -----------------------------------------


class HomError(GrpdError):
    pass


class NotAdditive(HomError):
    def __init__(self, g: str, h: str, detail: str = "") -> None:
        msg = f"additivity fails at ({_echo(g)}, {_echo(h)})"
        super().__init__(msg + (f": {detail}" if detail else ""))
        self.witness = (g, h)


class MissingArrow(HomError):
    def __init__(self, label: str) -> None:
        super().__init__(f"no value for arrow {_echo(label)}")
        self.label = label


class EmptyList(HomError):
    def __init__(self) -> None:
        super().__init__("at least one homomorphism required")


class MixedGroupoids(GrpdError):
    def __init__(self) -> None:
        super().__init__("homomorphisms are not all over the same groupoid")


class NotACongruence(HomError):
    def __init__(self, axiom: str, witness: tuple[str, str, str, str]) -> None:
        super().__init__(f"{axiom} axiom fails at {_echo(witness)}")
        self.axiom = axiom
        self.witness = witness


# --- bihomomorphisms and semi-inner products --------------------------------


class SipError(GrpdError):
    pass


class NotScalarTarget(SipError):
    def __init__(self, detail: str) -> None:
        super().__init__(detail)


class NotSeparating(SipError):
    def __init__(self, arrow: str) -> None:
        super().__init__(
            f"family does not separate identities: all values vanish on {_echo(arrow)}"
        )
        self.arrow = arrow


class NotBihom(SipError):
    """Additivity fails in slot "first" or "second" at (g, h, k), or slot
    "missing": the pair (g, h) has no entry."""

    def __init__(self, slot: str, *witness: str) -> None:
        shown = f"({', '.join(_echo(x) for x in witness)})"
        if slot == "missing":
            super().__init__(f"missing entry for the pair {shown}")
        else:
            super().__init__(f"{slot}-slot additivity fails at {shown}")
        self.slot = slot
        self.witness = witness


class ScalarSetNotSingleton(SipError):
    def __init__(self, obj: str, members: tuple[str, ...]) -> None:
        super().__init__(
            f"scalar set at object {_echo(obj)} has more than one element: {_echo(members)}"
        )
        self.object = obj
        self.members = members


# --- norms -------------------------------------------------------------------


class NormError(GrpdError):
    pass


class NotSip(NormError):
    def __init__(self, law: str, witness: str) -> None:
        super().__init__(f"pairing is not a semi-inner product: {law} fails at {witness}")
        self.law = law
        self.witness = witness


class NotConsistent(NormError):
    def __init__(self, detail: str) -> None:
        super().__init__(f"norm is not consistent with the congruence: {detail}")


class WitnessDisagreement(NormError):
    def __init__(self, g: str, h: str, values: tuple) -> None:
        shown = ", ".join(_number(str, v) for v in values[:4])
        super().__init__(
            f"witness quadruples for ({_echo(g)}, {_echo(h)}) give conflicting values "
            f"({shown}{', ...' if len(values) > 4 else ''})"
        )
        self.witness = (g, h)
        self.values = values


# --- documents ----------------------------------------------------------------


class DocumentError(GrpdError):
    pass


class ParseError(DocumentError):
    def __init__(self, line: int, col: int, detail: str) -> None:
        super().__init__(f"line {line}, column {col}: {detail}")
        self.line = line
        self.col = col


class SchemaError(DocumentError):
    def __init__(self, path: str, detail: str) -> None:
        super().__init__(f"{path}: {detail}" if path else detail)
        self.path = path
        self.detail = detail
