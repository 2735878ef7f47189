"""Bundled fixtures and the homology-level structure file format.

A ``.coalg`` file is a JSON document carrying the H1/H2 window of a
homology-level structure directly -- the escape hatch for examples whose
simplicial models are not desk-scale.  Schema::

    {
      "format": "einfty-coalg",
      "h1_rank": m,
      "h2_rank": r,
      "comul":  [r rows of m*m ints],    # H2 -> H1 (x) H1, antisymmetric
      "sq":     [m rows of m*m ints],    # H1 -> H1 (x) H1, symmetric
      "triple": [r rows of m^3 ints]     # H2 -> H1 (x) H1 (x) H1
    }

Row t of each block lists the tensor coordinates of the image of the t-th
generator (index (i, j) flattened as i*m + j, and (i, j, k) as
(i*m + j)*m + k).  The symmetry checks run at load time; a file violating
them is rejected.
"""
from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .errors import CoalgParseError, EinftyError, FileAccessError, violation
from .intlinalg import IntMatrix

SSET_FIXTURES = ("point", "circle", "wedge2", "wedge3", "sphere", "torus", "rp2")
COALG_FIXTURES = ("borromean", "zero")


def fixture_path(name: str):
    """A bundled fixture, by bare name or file name, as the
    ``importlib.resources`` traversable that ``read_text`` reads: a file in a
    checkout or an install, a member when the package is imported from a zip."""
    base = name
    if name in SSET_FIXTURES:
        base = f"{name}.sset"
    elif name in COALG_FIXTURES:
        base = f"{name}.coalg"
    ref = resources.files("einfty") / "fixtures" / base
    if not ref.is_file():
        raise EinftyError(f"no bundled fixture named {name!r}")
    return ref


def list_fixtures() -> list[str]:
    return sorted(SSET_FIXTURES) + sorted(COALG_FIXTURES)


def read_text(path) -> str:
    """The text of an input file, a filesystem path or a bundled fixture's
    traversable, which must be UTF-8."""
    try:
        return (Path(path) if isinstance(path, str) else path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FileAccessError(path, f"not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except OSError as exc:
        raise FileAccessError(path, f"cannot read: {exc.strerror or exc}") from exc


def load_structure_fixture(path: str | Path):
    """Load and validate a ``.coalg`` window file as an ``InvariantWindow``."""
    from .invariants import InvariantWindow  # only the commands that read windows load it
    text = read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CoalgParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("format") != "einfty-coalg":
        raise CoalgParseError("missing 'format': 'einfty-coalg' marker", "format")
    try:
        m = _rank(data["h1_rank"], "h1_rank")
        r = _rank(data["h2_rank"], "h2_rank")
        comul = _block(data["comul"], r, m * m, "comul")
        sq = _block(data["sq"], m, m * m, "sq")
        triple = _block(data["triple"], r, m ** 3, "triple")
    except KeyError as exc:
        raise CoalgParseError(f"missing field {exc}", exc.args[0]) from exc
    window = InvariantWindow(m, r, comul, sq, triple)
    bad = window.validate()
    if bad:
        raise violation(bad[0])
    return window


def _is_int(v) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(v, int) and not isinstance(v, bool)


def _rank(v, label: str) -> int:
    if not _is_int(v) or v < 0:
        raise CoalgParseError(f"{label}: expected a nonnegative integer, got {v!r}", label)
    return v


def _block(rows, expected_rows: int, width: int, label: str) -> IntMatrix:
    if not isinstance(rows, list) or len(rows) != expected_rows:
        raise CoalgParseError(f"{label}: expected {expected_rows} rows", label)
    for row in rows:
        if not isinstance(row, list) or len(row) != width:
            raise CoalgParseError(f"{label}: rows must have {width} integer entries", label)
        for v in row:
            if not _is_int(v):
                raise CoalgParseError(f"{label}: non-integer entry {v!r}", label)
    return IntMatrix.from_columns(rows, nrows=width)
