"""Byte-identity gate on the command-line reports of the bundled fixtures.

Every case runs one ``einfty`` command in-process and compares its output
byte for byte with a recorded file under ``tests/golden/``: stdout for a
command that exits 0, stderr (the error payload) for one that does not.
``exit_codes.json`` lists the cases with a nonzero exit code.
``selfcheck --seed 0`` gates the verification battery, which runs every
bundled fixture's structure, transfer and cobar D o D checks.

A change that alters a report on purpose re-records the files with

    PYTHONPATH=src python tests/test_golden_cli.py --record

and says in CHANGES.md why the new output still conforms.
"""
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from einfty.cli import main
from einfty.formats import SSET_FIXTURES

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

# every bundled .sset fixture has a single vertex, so all of them run cobar
CASES = [(cmd, fx) for fx in SSET_FIXTURES
         for cmd in ("homology", "coalgebra", "transfer", "invariant", "cobar")]
CASES += [("invariant", "borromean"), ("invariant", "zero"),
          ("compare", "borromean", "zero"), ("compare", "borromean", "borromean"),
          ("selfcheck", "--seed", "0")]


def _name(case) -> str:
    return "-".join(arg.lstrip("-") for arg in case)


def _run(case) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(case))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", CASES, ids=_name)
def test_cli_output_is_byte_identical(case):
    code, out, err = _run(case)
    want_code = json.loads(EXIT_CODES.read_text()).get(_name(case), 0)
    assert code == want_code, err
    want = (GOLDEN / f"{_name(case)}.txt").read_text()
    assert (out if code == 0 else err) == want


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case in CASES:
        code, out, err = _run(case)
        if code:
            codes[_name(case)] = code
        (GOLDEN / f"{_name(case)}.txt").write_text(out if code == 0 else err)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_golden_cli.py --record")
    _record()
