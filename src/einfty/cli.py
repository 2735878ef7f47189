"""Command-line front end.

Reports are JSON with deterministic key order: identical input and flags
produce byte-identical output.  Every error path exits nonzero after
printing a machine-readable report naming the violated precondition.

Each command imports the modules it runs when it runs, so a command loads
only those: ``invariant`` on a ``.coalg`` window never loads the chain-level
modules, and ``--help`` loads none.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path, PurePath

from . import __version__
from .errors import BadFlag, EinftyError, FileAccessError


def _resolve_input(arg: str):
    """The file ``arg`` names, else the bundled fixture (``formats.fixture_path``)."""
    from .formats import COALG_FIXTURES, SSET_FIXTURES, fixture_path, list_fixtures
    p = Path(arg)
    if p.exists():
        return p
    if arg in SSET_FIXTURES or arg in COALG_FIXTURES:
        return fixture_path(arg)
    raise EinftyError(f"no such file or bundled fixture: {arg!r} "
                      f"(bundled: {', '.join(list_fixtures())})")


def _load_sset(path):
    from .formats import read_text
    from .simplicial import parse_sset
    return parse_sset(read_text(path))


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise FileAccessError(out, f"cannot write the report: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _class_report(cls) -> dict:
    """The JSON form of an ``invariants.InvariantClass``."""
    free, torsion = cls.group.invariants()
    return {
        "group": {"free_rank": free, "torsion": torsion},
        "representative": list(cls.representative),
        "is_zero": cls.is_zero(),
    }


def _window_for(path):
    if PurePath(path.name).suffix == ".coalg":
        from .formats import load_structure_fixture
        return load_structure_fixture(path)
    from .coalgebra import chain_structure
    from .homology import build_sdr
    from .invariants import window_from_package
    from .transfer import MAX_CUP, transfer
    x = _load_sset(path)
    s = chain_structure(x, MAX_CUP)
    pkg = transfer(s, build_sdr(s.complex))
    return window_from_package(pkg)


def cmd_validate(args) -> dict:
    x = _load_sset(_resolve_input(args.input))  # raises on syntax or invariant errors
    return {
        "valid": True,
        "cells": {str(d): len(x.names(d)) for d in sorted(x.simplices)},
        "violations": [],
    }


def cmd_homology(args) -> dict:
    from .homology import homology
    from .simplicial import normalized_chains
    x = _load_sset(_resolve_input(args.input))
    rep = homology(normalized_chains(x))
    return {"homology": rep.as_table()}


def cmd_coalgebra(args) -> dict:
    from .coalgebra import chain_structure, operator_dump
    x = _load_sset(_resolve_input(args.input))
    s = chain_structure(x, args.max_cup)
    return {
        "max_cup": args.max_cup,
        "relations_verified": True,
        "operators": operator_dump(s),
    }


def cmd_transfer(args) -> dict:
    from .chains import expansion
    from .coalgebra import chain_structure
    from .homology import build_sdr
    from .transfer import MAX_CUP, transfer
    x = _load_sset(_resolve_input(args.input))
    s = chain_structure(x, MAX_CUP)
    pkg = transfer(s, build_sdr(s.complex))  # raises on any violated relation
    h = pkg.homology
    operators = {}
    for name in sorted(pkg.hat_ops):
        op = pkg.hat_ops[name]
        entries = {}
        for d in h.degrees():
            for idx, label in enumerate(h.labels(d)):
                terms = expansion(op, d, idx)
                if terms:
                    entries[str(label)] = terms
        operators[name] = entries
    return {
        "relations_violated": [],
        "homology_ranks": {str(d): h.rank(d) for d in h.degrees()},
        "operators": operators,
    }


def cmd_cobar(args) -> dict:
    from .coalgebra import chain_structure, reduce_structure
    from .chains import violation
    from .cobar import build_cobar, check_d_squared_cobar, gr_h0_ranks
    x = _load_sset(_resolve_input(args.input))
    s = chain_structure(x, 0)  # the cobar differential reads m2_0 only
    red = reduce_structure(s)
    t = build_cobar(red, args.max_len)
    bad = check_d_squared_cobar(t)
    if bad:
        raise violation(bad[0])
    return {
        "max_len": args.max_len,
        "graded_pieces": gr_h0_ranks(t),
    }


def cmd_invariant(args) -> dict:
    from .invariants import massey_invariant, sq_dual_invariant
    w = _window_for(_resolve_input(args.input))
    return {
        "h1_rank": w.h1_rank,
        "h2_rank": w.h2_rank,
        "sq_dual": _class_report(sq_dual_invariant(w)),
        "massey": _class_report(massey_invariant(w)),
    }


def cmd_compare(args) -> dict:
    from .invariants import class_equals, massey_invariant, sq_dual_invariant
    wa = _window_for(_resolve_input(args.input))
    wb = _window_for(_resolve_input(args.input_b))
    sq_eq = class_equals(sq_dual_invariant(wa), sq_dual_invariant(wb))
    ma_eq = class_equals(massey_invariant(wa), massey_invariant(wb))
    return {"sq_dual_equal": sq_eq, "massey_equal": ma_eq}


def cmd_selfcheck(args) -> dict:
    import random

    from .chains import bracket_d, compose_slot, transpose_swap
    from .coalgebra import chain_structure, reduce_structure
    from .cobar import build_cobar, check_d_squared_cobar
    from .formats import SSET_FIXTURES, fixture_path, load_structure_fixture
    from .homology import build_sdr, homology, sdr_variant
    from .intlinalg import IntMatrix
    from .invariants import (class_equals, massey_invariant, sq_dual_invariant,
                             window_from_package)
    from .operads import check_d_squared
    from .transfer import transfer
    rng = random.Random(args.seed)
    checks = []

    def record(name: str, ok: bool, detail: str = ""):
        entry = {"check": name, "ok": bool(ok)}
        if detail:
            entry["detail"] = detail
        checks.append(entry)

    rep = check_d_squared(5, 4)
    record("operad d o d = 0 (arity <= 5, degree <= 4)",
           all(r["ok"] for r in rep))

    for name in SSET_FIXTURES:
        x = _load_sset(fixture_path(name))
        # chain_structure, build_sdr and transfer each verify their result
        # and raise on a failure, so returning is passing
        s = chain_structure(x, args.max_cup)
        record(f"{name}: structure relations", True)
        for k in range(0, args.max_cup):
            lhs = bracket_d(s.op(f"m2_{k + 1}"))
            rhs = s.op(f"m2_{k}") - transpose_swap(s.op(f"m2_{k}")).scale(
                -1 if k % 2 else 1)
            record(f"{name}: cup ladder k={k}", lhs == rhs)
        d0 = s.op("m2_0")
        record(f"{name}: coassociativity",
               compose_slot(d0, d0, 1) == compose_slot(d0, d0, 2))
        hrep = homology(s.complex)
        torsion_free = not hrep.torsion
        if torsion_free:
            sdr = build_sdr(s.complex)
            record(f"{name}: retraction identities", True)
            transfer(s, sdr)
            record(f"{name}: transfer relations", True)
        if s.complex.rank(0) == 1:
            t = build_cobar(reduce_structure(s), args.max_len)
            bad = check_d_squared_cobar(t)
            record(f"{name}: cobar D o D = 0", not bad, bad[0]["detail"] if bad else "")

    # invariance of the classes under a seeded gauge twist of the retraction
    x = _load_sset(fixture_path("torus"))
    s = chain_structure(x, args.max_cup)
    sdr = build_sdr(s.complex)
    pkg = transfer(s, sdr)
    theta = {}
    for d in pkg.homology.degrees():
        m = IntMatrix(s.complex.rank(d), pkg.homology.rank(d))
        for i in range(m.nrows):
            for j in range(m.ncols):
                m[i, j] = rng.randint(-2, 2)
        theta[d] = m
    pkg2 = transfer(s, sdr_variant(sdr, theta))
    record("torus: invariants stable under gauge twist",
           class_equals(sq_dual_invariant(window_from_package(pkg)),
                        sq_dual_invariant(window_from_package(pkg2)))
           and class_equals(massey_invariant(window_from_package(pkg)),
                            massey_invariant(window_from_package(pkg2))))

    wb = load_structure_fixture(fixture_path("borromean"))
    wz = load_structure_fixture(fixture_path("zero"))
    record("borromean vs zero distinguished",
           not class_equals(massey_invariant(wb), massey_invariant(wz)))

    ok = all(c["ok"] for c in checks)
    return {"seed": args.seed, "all_ok": ok, "checks": checks}


def _check_flags(args) -> None:
    max_cup = getattr(args, "max_cup", None)
    if max_cup is not None:
        if args.command == "selfcheck":  # it runs the transfer on every fixture
            from .transfer import MAX_CUP
            if max_cup < MAX_CUP:
                raise BadFlag("--max-cup", max_cup, MAX_CUP,
                              "the transfer needs the cup coproducts up to m2_2")
        elif max_cup < 0:
            raise BadFlag("--max-cup", max_cup, 0, "cup indices are nonnegative")
    max_len = getattr(args, "max_len", None)
    if max_len is not None and max_len < 1:
        raise BadFlag("--max-len", max_len, 1,
                      "word lengths below it are reported, length 0 included")


# name -> (help, handler), in the order ``--help`` lists them
_COMMANDS = {
    "validate": ("check a simplicial-set file", cmd_validate),
    "homology": ("integral homology table", cmd_homology),
    "coalgebra": ("chain-level operators and relations", cmd_coalgebra),
    "transfer": ("structure on homology via a retraction", cmd_transfer),
    "cobar": ("word-length graded ranks of H0 of the cobar construction", cmd_cobar),
    "invariant": ("dual Steenrod square and dual triple Massey classes", cmd_invariant),
    "compare": ("decide equality of the invariant classes of two inputs", cmd_compare),
    "selfcheck": ("run the bundled verification battery", cmd_selfcheck),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser, with every command's subparser, or only that of
    ``command`` when it names one.  The usage line lists all commands
    either way, so a usage error prints the same text."""
    ap = argparse.ArgumentParser(
        prog="einfty",
        description="Exact coalgebra structures on simplicial chains: "
                    "homology transfer, cobar construction, invariants.")
    ap.add_argument("--version", action="version", version=f"einfty {__version__}")
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    listing = {} if len(names) > 1 else {"metavar": "{" + ",".join(_COMMANDS) + "}"}
    sub = ap.add_subparsers(dest="command", required=True, **listing)
    for name in names:
        help_text, fn = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        if name == "selfcheck":
            p.add_argument("--seed", type=int, default=0, metavar="S")
            p.add_argument("--max-cup", type=int, default=3, metavar="K")
            p.add_argument("--max-len", type=int, default=4, metavar="N")
            p.add_argument("--out", metavar="PATH")
            continue
        p.add_argument("input", help="path to a .sset/.coalg file or a bundled "
                                     "fixture name")
        if name == "compare":
            p.add_argument("input_b", help="second input for the comparison")
        if name == "coalgebra":
            p.add_argument("--max-cup", type=int, default=3, metavar="K",
                           help="highest cup coproduct to build (default 3)")
        p.add_argument("--out", metavar="PATH", help="write the report here "
                                                     "instead of stdout")
        if name == "cobar":
            p.add_argument("--max-len", type=int, default=4, metavar="N",
                           help="word-length truncation (default 4); lengths up to "
                                "N-1 are reported")
    return ap


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        _check_flags(args)
        results = args.fn(args)
        report = {"command": args.command, "ok": True}
        if getattr(args, "input", None):
            report["input"] = args.input
        if getattr(args, "input_b", None):
            report["input_b"] = args.input_b
        report["results"] = results
        _emit(report, getattr(args, "out", None))
    except EinftyError as exc:
        payload = {"command": args.command, "ok": False, "error": exc.payload()}
        sys.stderr.write(json.dumps(payload, indent=2) + "\n")
        return 1
    if args.command == "selfcheck" and not results["all_ok"]:
        return 1
    return 0


if __name__ == "__main__":
    code = main()  # argparse's --help and usage errors leave by SystemExit
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)  # the report is out: skip the interpreter's teardown
