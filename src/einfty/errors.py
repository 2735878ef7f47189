"""Exception types shared across the toolkit.

Every error that can surface through the CLI names the violated
precondition so failures stay machine readable.
"""
from __future__ import annotations


class EinftyError(Exception):
    """Base class; ``payload`` feeds the CLI error report."""

    def payload(self) -> dict:
        return {"error": type(self).__name__, "message": str(self)}


class SSetParseError(EinftyError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(message + where)

    def payload(self) -> dict:
        out = super().payload()
        out["line"] = self.line
        return out


class SSetValidationError(EinftyError):
    def __init__(self, violations: list[dict]):
        self.violations = violations
        super().__init__(f"{len(violations)} simplicial-set violation(s)")

    def payload(self) -> dict:
        out = super().payload()
        out["violations"] = self.violations
        return out


class TorsionPresent(EinftyError):
    def __init__(self, degree: int, coefficient: int):
        self.degree = degree
        self.coefficient = coefficient
        super().__init__(
            f"homology has torsion Z/{coefficient} in degree {degree}; "
            "no retraction onto free homology exists"
        )

    def payload(self) -> dict:
        out = super().payload()
        out.update(degree=self.degree, coefficient=self.coefficient)
        return out


class MultipleVertices(EinftyError):
    def __init__(self, count: int):
        self.count = count
        super().__init__(f"operation requires a single-vertex model, found {count} vertices")

    def payload(self) -> dict:
        out = super().payload()
        out["count"] = self.count
        return out


class NotReduced(EinftyError):
    """A single-vertex structure passed where its reduction is needed."""

    def __init__(self):
        super().__init__("operation requires a reduced structure: "
                         "apply reduce_structure to the single-vertex model first")


class RelationViolation(EinftyError):
    """``fields`` locate the failure (for instance the failing word) in the
    payload, next to the relation's name."""

    def __init__(self, relation: str, detail: str = "", fields: dict | None = None):
        self.relation = relation
        self.fields = dict(fields or {})
        msg = f"structure relation violated: {relation}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)

    def payload(self) -> dict:
        out = super().payload()
        out["relation"] = self.relation
        out.update(self.fields)
        return out


class NotNormalizable(EinftyError):
    def __init__(self, generator: str):
        self.generator = generator
        super().__init__(
            f"triple-coproduct image of {generator} lies outside the "
            "bracket lattice; class is not defined"
        )

    def payload(self) -> dict:
        out = super().payload()
        out["generator"] = self.generator
        return out


class BadFlag(EinftyError):
    def __init__(self, flag: str, value: int, minimum: int, reason: str):
        self.flag = flag
        self.value = value
        self.minimum = minimum
        super().__init__(f"{flag} {value} is below {minimum}: {reason}")

    def payload(self) -> dict:
        out = super().payload()
        out.update(flag=self.flag, value=self.value, minimum=self.minimum)
        return out


class GroupMismatch(EinftyError):
    pass


class ShapeMismatch(EinftyError):
    pass


class OutsideFragment(EinftyError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"generator {name} has no tabulated differential")


class FileAccessError(EinftyError):
    """An input that cannot be read as UTF-8 text, or a report that cannot
    be written; ``path`` names the file."""

    def __init__(self, path, reason: str):
        self.path = str(path)
        super().__init__(f"{self.path}: {reason}")

    def payload(self) -> dict:
        out = super().payload()
        out["path"] = self.path
        return out
