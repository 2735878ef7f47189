"""Fixture files, the .coalg format, and the command-line interface."""
import io
import json
import os
import subprocess
import sys
import zipfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest

import einfty
from einfty.cli import build_parser, main
from einfty.errors import RelationViolation
from einfty.formats import (SSET_FIXTURES, CoalgParseError, fixture_path, list_fixtures,
                            load_structure_fixture, read_text)
from einfty.intlinalg import IntMatrix
from einfty.invariants import InvariantWindow, massey_invariant
from einfty.simplicial import parse_sset


def run_cli(*argv, expect=0):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    assert code == expect, (code, err.getvalue(), out.getvalue())
    return out.getvalue(), err.getvalue()


def test_bundled_fixture_roundtrip():
    # every bundled file is a listed fixture, and every listed name resolves to its file
    files = sorted(ref.name for ref in (resources.files("einfty") / "fixtures").iterdir())
    assert files == sorted(fixture_path(name).name for name in list_fixtures())
    # every .sset model is valid with one vertex, so the golden gate runs cobar on each
    for name in SSET_FIXTURES:
        x = parse_sset(read_text(fixture_path(name)))
        assert x.validate() == [] and len(x.names(0)) == 1, name


@pytest.mark.parametrize("argv", [("homology", "torus"), ("invariant", "borromean"),
                                  ("cobar", "rp2")], ids="-".join)
def test_zipped_package_prints_the_golden_report(tmp_path, argv):
    # a package imported from a zip reads its fixtures from inside the archive
    package = Path(einfty.__file__).parent
    archive = tmp_path / "einfty.zip"
    with zipfile.ZipFile(archive, "w") as z:
        for p in sorted(package.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                z.write(p, p.relative_to(package.parent).as_posix())
    proc = subprocess.run([sys.executable, "-m", "einfty.cli", *argv], capture_output=True,
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(archive)),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    golden = Path(__file__).parent / "golden" / f"{'-'.join(argv)}.txt"
    assert proc.stdout == golden.read_bytes()


def test_load_structure_fixture():
    w = load_structure_fixture(fixture_path("borromean"))
    assert (w.h1_rank, w.h2_rank) == (3, 2)
    assert not w.triple.is_zero()
    z = load_structure_fixture(fixture_path("zero"))
    assert z.triple.is_zero()


def test_coalg_rejects_bad_schema(tmp_path):
    p = tmp_path / "bad.coalg"
    p.write_text("{}")
    with pytest.raises(CoalgParseError):
        load_structure_fixture(p)
    p.write_text("not json at all")
    with pytest.raises(CoalgParseError):
        load_structure_fixture(p)


def _set_rank(field, value):
    def edit(data):
        data[field] = value
    return edit


def _true_entry(data):
    data["triple"][0][0] = True


@pytest.mark.parametrize("edit,field", [
    (_set_rank("h1_rank", 3.7), "h1_rank"),
    (_set_rank("h1_rank", "3"), "h1_rank"),
    (_set_rank("h2_rank", None), "h2_rank"),
    (_set_rank("h1_rank", -1), "h1_rank"),
    (_set_rank("h2_rank", True), "h2_rank"),
    (_true_entry, "triple"),
], ids=["float-rank", "string-rank", "null-rank", "negative-rank", "bool-rank",
        "bool-entry"])
def test_coalg_malformed_field_is_named(tmp_path, edit, field):
    data = json.loads(fixture_path("zero").read_text())
    edit(data)
    p = tmp_path / "bad.coalg"
    p.write_text(json.dumps(data))
    _, err = run_cli("invariant", str(p), expect=1)
    error = json.loads(err)["error"]
    assert error["error"] == "CoalgParseError"
    assert error["field"] == field
    assert error["message"].startswith(f"{field}: ")


def test_coalg_rejects_noncocommutative(tmp_path):
    data = json.loads(fixture_path("borromean").read_text())
    data["comul"][0][0 * 3 + 1] = 1  # breaks antisymmetry
    p = tmp_path / "defect.coalg"
    p.write_text(json.dumps(data))
    with pytest.raises(RelationViolation):
        load_structure_fixture(p)
    # the command exits with the failure that the Massey class raises on
    # the same window in-process
    _, err = run_cli("invariant", str(p), expect=1)
    window = InvariantWindow(3, 2, *(IntMatrix.from_columns(data[key], nrows=3 ** arity)
                                     for key, arity in (("comul", 2), ("sq", 2), ("triple", 3))))
    with pytest.raises(RelationViolation) as raised:
        massey_invariant(window)
    error = json.loads(err)["error"]
    assert error == raised.value.payload()
    assert (error["relation"], error["degree"], error["element"]) == (
        "hat m2_0 = sigma hat m2_0", 2, "#0")


def test_cli_homology():
    out, _ = run_cli("homology", "torus")
    rep = json.loads(out)
    assert rep["results"]["homology"]["1"] == {"rank": 2, "torsion": []}


def test_cli_cobar_wedge():
    out, _ = run_cli("cobar", "wedge2", "--max-len", "4")
    rep = json.loads(out)
    ranks = [p["rank"] for p in rep["results"]["graded_pieces"]]
    assert ranks == [1, 2, 4, 8]


def test_cli_invariant_and_compare():
    out, _ = run_cli("invariant", "borromean")
    rep = json.loads(out)
    assert rep["results"]["massey"]["is_zero"] is False
    out, _ = run_cli("invariant", "zero")
    assert json.loads(out)["results"]["massey"]["is_zero"] is True
    out, _ = run_cli("compare", "borromean", "zero")
    res = json.loads(out)["results"]
    assert res["massey_equal"] is False and res["sq_dual_equal"] is True


def test_cli_validate_and_errors(tmp_path):
    out, _ = run_cli("validate", "rp2")
    assert json.loads(out)["results"]["valid"] is True
    bad = tmp_path / "bad.sset"
    bad.write_text("dim 0\nv: []\ndim 1\na: [v, w]\n")
    _, err = run_cli("validate", str(bad), expect=1)
    payload = json.loads(err)
    assert payload["ok"] is False
    assert payload["error"]["error"] == "SSetValidationError"
    _, err = run_cli("transfer", "rp2", expect=1)
    assert json.loads(err)["error"]["error"] == "TorsionPresent"
    _, err = run_cli("homology", "no-such-input", expect=1)
    assert "no such file" in json.loads(err)["error"]["message"]


def test_cli_determinism_and_out(tmp_path):
    a, _ = run_cli("transfer", "torus")
    b, _ = run_cli("transfer", "torus")
    assert a == b
    target = tmp_path / "report.json"
    out, _ = run_cli("coalgebra", "circle", "--out", str(target))
    assert out == ""
    rep = json.loads(target.read_text())
    assert rep["command"] == "coalgebra"
    assert rep["results"]["operators"]["m2_1"] == {"a": "-a(x)a"}


def test_cli_selfcheck_green():
    out, _ = run_cli("selfcheck", "--seed", "3", "--max-len", "3")
    rep = json.loads(out)
    assert rep["results"]["all_ok"] is True
    assert all(c["ok"] for c in rep["results"]["checks"])


def _src_env() -> dict:
    """The environment with this checkout's package first on the path."""
    src = str(Path(einfty.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


@pytest.mark.parametrize("argv,out,code", [
    (["homology", "torus"], False, 0),
    (["coalgebra", "circle"], True, 0),
    (["transfer", "rp2"], False, 1),
    (["cobar", "torus", "--bogus"], False, 2),
], ids=["stdout-report", "out-file", "error-payload", "usage-error"])
def test_module_run_matches_in_process_main(tmp_path, monkeypatch, argv, out, code):
    # ``python -m einfty.cli`` flushes and leaves by os._exit: nothing
    # written may be lost and the exit code must be main's
    monkeypatch.setenv("COLUMNS", "80")
    if out:
        argv = argv + ["--out", str(tmp_path / "report.json")]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
    report = (tmp_path / "report.json").read_bytes() if out else b""
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)  # buffered pipes, so that a lost flush shows
    proc = subprocess.run([sys.executable, "-m", "einfty.cli", *argv], capture_output=True,
                          env=env, timeout=120)
    assert got == proc.returncode == code
    assert proc.stdout == stdout.getvalue().encode()
    assert proc.stderr == stderr.getvalue().encode()
    if out:
        assert (tmp_path / "report.json").read_bytes() == report != b""


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("argv", [("invariant", "torus"), ("transfer", "wedge3"),
                                  ("cobar", "wedge2"), ("coalgebra", "rp2")], ids="-".join)
def test_report_does_not_depend_on_the_hash_seed(argv, seed):
    # the golden gate runs in one process; a fresh one under another string
    # hash seed must print the same bytes
    proc = subprocess.run([sys.executable, "-m", "einfty.cli", *argv], capture_output=True,
                          env=dict(_src_env(), PYTHONHASHSEED=seed), timeout=120)
    assert proc.returncode == 0, proc.stderr
    golden = Path(__file__).parent / "golden" / f"{'-'.join(argv)}.txt"
    assert proc.stdout == golden.read_bytes()


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "einfty.cli", "homology", "circle"],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["homology"]["1"]["rank"] == 1


@pytest.mark.parametrize("argv,flag,minimum", [
    (("selfcheck", "--max-cup", "0"), "--max-cup", 2),
    (("selfcheck", "--max-cup", "1"), "--max-cup", 2),
    (("cobar", "torus", "--max-len", "0"), "--max-len", 1),
    (("coalgebra", "circle", "--max-cup", "-1"), "--max-cup", 0),
])
def test_cli_rejects_bad_flags(argv, flag, minimum):
    _, err = run_cli(*argv, expect=1)
    error = json.loads(err)["error"]
    assert error["error"] == "BadFlag"
    assert (error["flag"], error["minimum"]) == (flag, minimum)
    assert error["value"] == int(argv[-1])


# validate and homology build no cup coproduct; transfer, invariant and
# compare read m2_0..m2_2 and cobar reads m2_0 only, so the flag would only
# add unread operators
@pytest.mark.parametrize("command", ["validate", "homology", "transfer", "cobar",
                                     "invariant", "compare"])
def test_max_cup_is_a_usage_error_where_no_cup_is_built(command):
    inputs = ["torus", "circle"] if command == "compare" else ["torus"]
    code, out, err = _parse_exit(main, [command, *inputs, "--max-cup", "3"])
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --max-cup 3" in err


FLAGS = {
    "validate": {"--out"},
    "homology": {"--out"},
    "coalgebra": {"--max-cup", "--out"},
    "transfer": {"--out"},
    "cobar": {"--out", "--max-len"},
    "invariant": {"--out"},
    "compare": {"--out"},
    "selfcheck": {"--seed", "--max-cup", "--max-len", "--out"},
}


def test_every_command_has_its_flags():
    for name, want in FLAGS.items():
        (sub,) = [a for a in build_parser(name)._actions if a.choices]
        got = {flag for action in sub.choices[name]._actions
               for flag in action.option_strings} - {"-h", "--help"}
        assert got == want, name


def _file_error(*argv):
    out, err = run_cli(*argv, expect=1)
    assert out == ""
    payload = json.loads(err)
    assert payload["ok"] is False
    error = payload["error"]
    assert error["error"] == "FileAccessError"
    return error


def test_cli_input_directory_is_a_named_error(tmp_path):
    error = _file_error("homology", str(tmp_path))
    assert error["path"] == str(tmp_path)


@pytest.mark.parametrize("command,name", [("validate", "bad.sset"),
                                          ("invariant", "bad.coalg")])
def test_cli_non_utf8_input_is_a_named_error(tmp_path, command, name):
    p = tmp_path / name
    p.write_bytes(b"dim 0\nv: \xff\xfe\n")
    error = _file_error(command, str(p))
    assert error["path"] == str(p)
    assert "not UTF-8" in error["message"]


def test_cli_out_into_missing_directory_is_a_named_error(tmp_path):
    target = tmp_path / "missing" / "report.json"
    assert _file_error("homology", "circle", "--out", str(target))["path"] == str(target)
    assert not target.parent.exists()


# modules a command must not load: the chain-level layers and dataclasses
CHAIN_LEVEL = {"einfty.chains", "einfty.coalgebra", "einfty.operads", "einfty.simplicial",
               "einfty.homology", "einfty.transfer", "einfty.cobar", "dataclasses"}


def _modules_loaded(*argv):
    """The modules a fresh interpreter has loaded after running the command,
    minus those loaded before the package was imported."""
    code = ("import io, json, sys\n"
            "from contextlib import redirect_stdout\n"
            "before = set(sys.modules)\n"
            "from einfty.cli import main\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        main(sys.argv[1:])\n"
            "    except SystemExit:\n"
            "        pass\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


@pytest.mark.parametrize("argv", [("invariant", "borromean"),
                                  ("compare", "borromean", "zero")])
def test_coalg_commands_load_no_chain_level_module(argv):
    loaded = _modules_loaded(*argv)
    assert "einfty.invariants" in loaded
    assert not loaded & CHAIN_LEVEL


def test_help_loads_only_cli_and_errors():
    loaded = _modules_loaded("--help")
    assert {m for m in loaded if m.startswith("einfty.")} == {"einfty.cli", "einfty.errors"}


@pytest.mark.parametrize("argv", [("coalgebra", "torus"), ("cobar", "torus"),
                                  ("homology", "torus")])
def test_sset_commands_that_read_no_window_load_no_invariants(argv):
    assert "einfty.invariants" not in _modules_loaded(*argv)


def test_homology_loads_no_operad_table():
    # the identity check lives in chains, next to the operators it compares
    loaded = _modules_loaded("homology", "torus")
    assert "einfty.homology" in loaded
    assert not loaded & {"einfty.operads", "einfty.coalgebra"}


@pytest.mark.parametrize("argv", [("coalgebra", "torus"), ("invariant", "torus"),
                                  ("cobar", "torus")])
def test_sset_commands_load_no_dataclasses_or_inspect(argv):
    loaded = _modules_loaded(*argv)
    assert "einfty.coalgebra" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def _parse_exit(parse, argv):
    """Exit code, stdout and stderr of a parse that exits."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [["--help"], [], ["cobar"], ["cobar", "--help"],
                                  ["compare", "torus"], ["cobar", "torus", "--bogus"],
                                  ["selfcheck", "--seed", "x"]])
def test_usage_text_is_that_of_the_full_parser(monkeypatch, argv):
    # main builds only the subparser of the command it runs; help and
    # usage errors must read as with all eight built
    monkeypatch.setenv("COLUMNS", "80")
    assert _parse_exit(main, argv) == _parse_exit(build_parser().parse_args, argv)


def test_one_command_parser_has_only_that_command():
    code, _, err = _parse_exit(build_parser("cobar").parse_args, ["homology", "torus"])
    assert code == 2 and "invalid choice: 'homology'" in err
