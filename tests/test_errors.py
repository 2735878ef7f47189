"""The error payloads: every ``EinftyError`` subclass, its keys in order."""
from pathlib import Path

import pytest

from einfty import errors
from einfty.chains import violation
from einfty.formats import CoalgParseError

LOCATED = {"relation": "[d, m2_1]", "detail": "degree 1, a: expected +1 v, got 0",
           "degree": 1, "element": "a", "expected": [[1, "v"]], "actual": []}

CASES = [
    (errors.EinftyError("no bundled fixture named 'x'"),
     [("error", "EinftyError"), ("message", "no bundled fixture named 'x'")]),
    (errors.SSetParseError("bad simplex name '!'", 3),
     [("error", "SSetParseError"), ("message", "bad simplex name '!' (line 3)"), ("line", 3)]),
    (errors.SSetParseError("duplicate simplex name 'v'"),
     [("error", "SSetParseError"), ("message", "duplicate simplex name 'v'"), ("line", None)]),
    (errors.SSetValidationError([{"kind": "vertex-with-faces", "simplex": "v"}]),
     [("error", "SSetValidationError"), ("message", "1 simplicial-set violation(s)"),
      ("violations", [{"kind": "vertex-with-faces", "simplex": "v"}])]),
    (errors.TorsionPresent(1, 2),
     [("error", "TorsionPresent"),
      ("message", "homology has torsion Z/2 in degree 1; no retraction onto free homology "
                  "exists"),
      ("degree", 1), ("coefficient", 2)]),
    (errors.MultipleVertices(3),
     [("error", "MultipleVertices"),
      ("message", "operation requires a single-vertex model, found 3 vertices"), ("count", 3)]),
    (errors.NotReduced(),
     [("error", "NotReduced"),
      ("message", "operation requires a reduced structure: apply reduce_structure to the "
                  "single-vertex model first")]),
    (violation(LOCATED),
     [("error", "RelationViolation"),
      ("message", "structure relation violated: [d, m2_1] (degree 1, a: expected +1 v, got 0)"),
      ("relation", "[d, m2_1]"), ("degree", 1), ("element", "a"), ("expected", [[1, "v"]]),
      ("actual", [])]),
    (violation({"relation": "hat m2_0 present"}),
     [("error", "RelationViolation"), ("message", "structure relation violated: hat m2_0 present"),
      ("relation", "hat m2_0 present")]),
    (errors.RelationViolation("cobar D o D = 0", "no letter"),
     [("error", "RelationViolation"),
      ("message", "structure relation violated: cobar D o D = 0 (no letter)"),
      ("relation", "cobar D o D = 0")]),
    (errors.NotNormalizable("H2 generator #1"),
     [("error", "NotNormalizable"),
      ("message", "triple-coproduct image of H2 generator #1 lies outside the bracket "
                  "lattice; class is not defined"),
      ("generator", "H2 generator #1")]),
    (errors.BadFlag("--max-len", 0, 1, "lengths below it are reported"),
     [("error", "BadFlag"), ("message", "--max-len 0 is below 1: lengths below it are reported"),
      ("flag", "--max-len"), ("value", 0), ("minimum", 1)]),
    (errors.GroupMismatch("classes live in different group presentations"),
     [("error", "GroupMismatch"), ("message", "classes live in different group presentations")]),
    (errors.ShapeMismatch("window matrices have inconsistent shapes"),
     [("error", "ShapeMismatch"), ("message", "window matrices have inconsistent shapes")]),
    (errors.OutsideFragment("m9_9"),
     [("error", "OutsideFragment"), ("message", "generator m9_9 has no tabulated differential")]),
    (errors.FileAccessError(Path("in") / "x.sset", "cannot read: Is a directory"),
     [("error", "FileAccessError"),
      ("message", f"{Path('in') / 'x.sset'}: cannot read: Is a directory"),
      ("path", str(Path("in") / "x.sset"))]),
    (CoalgParseError("h1_rank: expected a nonnegative integer, got -1", "h1_rank"),
     [("error", "CoalgParseError"),
      ("message", "h1_rank: expected a nonnegative integer, got -1"), ("field", "h1_rank")]),
    (CoalgParseError("not valid JSON"),
     [("error", "CoalgParseError"), ("message", "not valid JSON"), ("field", None)]),
]


@pytest.mark.parametrize("exc,want", CASES, ids=[f"{type(e).__name__}-{n}"
                                                 for n, (e, _) in enumerate(CASES)])
def test_payload_keys_and_values_in_order(exc, want):
    assert list(exc.payload().items()) == want


def test_every_error_class_is_pinned():
    assert {type(exc) for exc, _ in CASES} == {errors.EinftyError,
                                               *errors.EinftyError.__subclasses__()}
