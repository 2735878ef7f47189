"""Exception types shared across the toolkit, and the one record of a
failed check.

Every error that can surface through the CLI names the violated
precondition so failures stay machine readable.  A check that compares an
expansion with the one it should have reports the first failure as a
``located`` record, and ``violation`` raises it.
"""
from __future__ import annotations


class EinftyError(Exception):
    """Base class; ``payload`` feeds the CLI error report.

    A subclass declares ``fields``, the names its payload writes after the
    error's name and message, in that order; the values are those it passes
    to this ``__init__``, which stores them as attributes.  A field it does
    not pass is left out: a ``RelationViolation`` whose record names its
    relation alone writes no location.
    """

    fields: tuple[str, ...] = ()

    def __init__(self, message: str, **values):
        super().__init__(message)
        vars(self).update(values)

    def payload(self) -> dict:
        out = {"error": type(self).__name__, "message": str(self)}
        out.update((name, vars(self)[name]) for name in self.fields if name in vars(self))
        return out


class SSetParseError(EinftyError):
    fields = ("line",)

    def __init__(self, message: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(message + where, line=line)


class SSetValidationError(EinftyError):
    fields = ("violations",)

    def __init__(self, violations: list[dict]):
        super().__init__(f"{len(violations)} simplicial-set violation(s)",
                         violations=violations)


class CoalgParseError(EinftyError):
    """A malformed ``.coalg`` file; ``field`` names the offending key."""

    fields = ("field",)

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message, field=field)


class TorsionPresent(EinftyError):
    fields = ("degree", "coefficient")

    def __init__(self, degree: int, coefficient: int):
        super().__init__(
            f"homology has torsion Z/{coefficient} in degree {degree}; "
            "no retraction onto free homology exists",
            degree=degree, coefficient=coefficient)


class MultipleVertices(EinftyError):
    fields = ("count",)

    def __init__(self, count: int):
        super().__init__(f"operation requires a single-vertex model, found {count} vertices",
                         count=count)


class NotReduced(EinftyError):
    """A single-vertex structure passed where its reduction is needed."""

    def __init__(self):
        super().__init__("operation requires a reduced structure: "
                         "apply reduce_structure to the single-vertex model first")


class RelationViolation(EinftyError):
    """A failed identity: its relation, then where it fails (the fields of a
    ``located`` record, when the check located it)."""

    fields = ("relation", "degree", "element", "expected", "actual")

    def __init__(self, relation: str, detail: str = "", **location):
        msg = f"structure relation violated: {relation}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg, relation=relation, **location)


class NotNormalizable(EinftyError):
    fields = ("generator",)

    def __init__(self, generator: str):
        super().__init__(
            f"triple-coproduct image of {generator} lies outside the "
            "bracket lattice; class is not defined",
            generator=generator)


class BadFlag(EinftyError):
    fields = ("flag", "value", "minimum")

    def __init__(self, flag: str, value: int, minimum: int, reason: str):
        super().__init__(f"{flag} {value} is below {minimum}: {reason}",
                         flag=flag, value=value, minimum=minimum)


class GroupMismatch(EinftyError):
    pass


class ShapeMismatch(EinftyError):
    pass


class OutsideFragment(EinftyError):
    def __init__(self, name: str):
        super().__init__(f"generator {name} has no tabulated differential", name=name)


class FileAccessError(EinftyError):
    """An input that cannot be read as UTF-8 text, or a report that cannot
    be written; ``path`` names the file."""

    fields = ("path",)

    def __init__(self, path, reason: str):
        super().__init__(f"{path}: {reason}", path=str(path))


def located(relation: str, degree: int, element: str, expected: list[list],
            actual: list[list]) -> dict:
    """The record of a failed check: ``relation`` fails at basis element
    ``element`` of ``degree``, whose image should expand as ``expected`` and
    expands as ``actual`` ([coefficient, word] pairs).  ``detail`` spells
    the same in one line."""
    spell = [" ".join(f"{v:+d} {w}" for v, w in terms) or "0" for terms in (expected, actual)]
    return {"relation": relation,
            "detail": f"degree {degree}, {element}: expected {spell[0]}, got {spell[1]}",
            "degree": degree, "element": element, "expected": expected, "actual": actual}


def violation(entry: dict) -> RelationViolation:
    """The error for a failed-check record: a ``located`` one, or one that
    names its relation alone."""
    return RelationViolation(**entry)
