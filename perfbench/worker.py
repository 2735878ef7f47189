"""One benchmark operation run in-process, with or without spans.

    python3 perfbench/worker.py '<op json>' 0|1

The op is ``{"command": ..., "inputs": [...]}``, plus ``"max_len"`` for cobar;
cup coproducts go up to the CLI's default ``--max-cup 3``.
Each pipeline calls the public einfty functions that the matching CLI
command reaches, in the same order and doing the same work, and returns the
same ``results`` dict the CLI prints.  The cup tables an input needs are
fetched first, in the order the operators ask for them, so that their cost
gets its own span; no stage is ever run twice.  One process runs one op, so
the module-level caches start cold as they do for a CLI command.

Prints one JSON object: the results (or the error), the in-process
compute time, and with tracing on the spans and size counters.
"""
from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from einfty.chains import zero_operator
from einfty.coalgebra import (CoalgebraStructure, aw_diagonal, counit, cup_k_coproduct,
                              cup_table, operator_dump, reduce_structure)
from einfty.cobar import build_cobar, check_d_squared_cobar, gr_h0_ranks
from einfty.errors import EinftyError, RelationViolation
from einfty.formats import load_structure_fixture
from einfty.homology import build_sdr
from einfty.invariants import (class_equals, massey_invariant, sq_dual_invariant,
                               window_from_package)
from einfty.simplicial import normalized_chains, parse_sset
from einfty.transfer import transfer

MAX_CUP = 3


class Tracer:
    """In-memory spans (id, parent, name, start, end), size counters that
    add up over an op, and maxima."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else nullcontext()

    def count(self, name: str, value) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + value

    def high(self, name: str, value) -> None:
        if self.enabled:
            self.maxima[name] = max(self.maxima.get(name, 0), value)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        self.id = len(tr.spans)
        tr.spans.append([self.id, tr._stack[-1] if tr._stack else None, self.name,
                         time.perf_counter(), None])
        tr._stack.append(self.id)

    def __exit__(self, exc_type, exc, tb):
        tr = self.tracer
        tr.spans[self.id][4] = time.perf_counter()
        tr._stack.pop()
        # an error is charged to the innermost layer it crossed
        if isinstance(exc, EinftyError) and not getattr(exc, "_charged", False):
            exc._charged = True
            layer = self.name.split(".")[0]
            tr.errors[layer] = tr.errors.get(layer, 0) + 1
        return False


def _nnz(mats) -> int:
    return sum(len(m.data) for m in mats)


def _bits(mats) -> int:
    return max((abs(v).bit_length() for m in mats for v in m.data.values()), default=0)


def _tensor_words(s: CoalgebraStructure) -> int:
    """Words in the dense tensor bases that verification touches.

    Computed from the cell ranks (coefficients of the rank polynomial's
    powers) for every (arity, total degree) pair that ``bracket_d`` of a
    structure operator reads or writes; the program does not count them.
    """
    c = s.complex
    ranks = {d: c.rank(d) for d in c.degrees()}

    def tensor_rank(n: int, total: int) -> int:
        poly = {0: 1}
        for _ in range(n):
            nxt: dict[int, int] = {}
            for a, x in poly.items():
                for d, r in ranks.items():
                    nxt[a + d] = nxt.get(a + d, 0) + x * r
            poly = nxt
        return poly.get(total, 0)

    pairs = set()
    for op in s.ops.values():
        degs = set(op.blocks) | {d + 1 for d in op.blocks} | set(c.boundary)
        for d in degs:
            if c.rank(d):
                pairs.add((op.arity, d + op.degree))
                pairs.add((op.arity, d + op.degree - 1))
    return sum(tensor_rank(n, t) for n, t in pairs)


def _structure(tr: Tracer, path: str) -> CoalgebraStructure:
    """What ``chain_structure`` does, one span per stage."""
    with tr.span("simplicial.parse_sset"):
        x = parse_sset(Path(path).read_text())
    if tr.enabled:
        tr.count("simplicial.cells", sum(len(v) for v in x.simplices.values()))
    with tr.span("simplicial.normalized_chains"):
        c = normalized_chains(x)
    before = cup_table.cache_info()
    with tr.span("coalgebra.cup_table"):
        for k in range(MAX_CUP + 1):
            for d in c.degrees():
                cup_table(k, d)
    # the CLI fetches each table once; the operators below fetch them again
    after = cup_table.cache_info()
    tr.count("coalgebra.cup_table.hits", after.hits - before.hits)
    tr.count("coalgebra.cup_table.misses", after.misses - before.misses)
    with tr.span("coalgebra.operators"):
        ops = {"p": counit(x, c), "m2_0": aw_diagonal(x, c)}
        for k in range(1, MAX_CUP + 1):
            ops[f"m2_{k}"] = cup_k_coproduct(x, k, c)
        ops["m3_1"] = zero_operator(c, c, 3, 1)
    with tr.span("coalgebra.verify"):
        s = CoalgebraStructure(c, ops, reduced=False, max_k=MAX_CUP, check=False)
        bad = s.verify()
        if bad:
            raise RelationViolation(bad[0]["relation"], bad[0].get("detail", ""))
    if tr.enabled:
        tr.count("coalgebra.operator_nnz",
                 _nnz(m for op in ops.values() for m in op.blocks.values()))
        tr.count("chains.tensor_words", _tensor_words(s))
    return s


def _window(tr: Tracer, path: str):
    """What the CLI's ``_window_for`` does."""
    if path.endswith(".coalg"):
        with tr.span("formats.load_structure_fixture"):
            return load_structure_fixture(path)
    s = _structure(tr, path)
    with tr.span("homology.build_sdr"):
        sdr = build_sdr(s.complex)
    if tr.enabled:
        mats = [m for op in (sdr.f, sdr.g, sdr.h) for m in op.blocks.values()]
        tr.count("homology.sdr_nnz", _nnz(mats))
        tr.high("homology.sdr_max_bits", _bits(mats))
    with tr.span("transfer.transfer"):
        pkg = transfer(s, sdr)
    if tr.enabled:
        tr.count("transfer.hat_nnz", _nnz(m for op in pkg.hat_ops.values()
                                          for m in op.blocks.values()))
    with tr.span("invariants.window_from_package"):
        return window_from_package(pkg)


def _invariant_class(tr: Tracer, fn, w):
    with tr.span(f"invariants.{fn.__name__}"):
        cls = fn(w)
    if tr.enabled:
        rel = cls.group.relations
        tr.count("invariants.relations_cols", rel.ncols)
        tr.count("invariants.relations_nnz", len(rel.data))
        tr.high("invariants.relations_max_bits", _bits([rel]))
    return cls


def _class_report(tr: Tracer, cls) -> dict:
    with tr.span("invariants.group_invariants"):
        free, torsion = cls.group.invariants()
    with tr.span("invariants.is_zero"):
        zero = cls.is_zero()
    return {"group": {"free_rank": free, "torsion": torsion},
            "representative": list(cls.representative), "is_zero": zero}


def run_invariant(tr, op):
    w = _window(tr, op["inputs"][0])
    return {"h1_rank": w.h1_rank, "h2_rank": w.h2_rank,
            "sq_dual": _class_report(tr, _invariant_class(tr, sq_dual_invariant, w)),
            "massey": _class_report(tr, _invariant_class(tr, massey_invariant, w))}


def run_compare(tr, op):
    wa = _window(tr, op["inputs"][0])
    wb = _window(tr, op["inputs"][1])
    out = {}
    for key, fn in (("sq_dual_equal", sq_dual_invariant),
                    ("massey_equal", massey_invariant)):
        a, b = _invariant_class(tr, fn, wa), _invariant_class(tr, fn, wb)
        with tr.span("invariants.class_equals"):
            out[key] = class_equals(a, b)
    return out


def run_coalgebra(tr, op):
    s = _structure(tr, op["inputs"][0])
    with tr.span("coalgebra.operator_dump"):
        dump = operator_dump(s)
    return {"max_cup": MAX_CUP, "relations_verified": True, "operators": dump}


def run_cobar(tr, op):
    s = _structure(tr, op["inputs"][0])
    with tr.span("coalgebra.reduce_structure"):
        red = reduce_structure(s)
    with tr.span("cobar.build_cobar"):
        t = build_cobar(red, op["max_len"])
    if tr.enabled:
        tr.count("cobar.words", sum(len(ws) for ws in t.words.values()))
        tr.count("cobar.d_nnz", _nnz(list(t.d_keep.values()) + list(t.d_up.values())))
    with tr.span("cobar.check_d_squared_cobar"):
        dd = [r for r in check_d_squared_cobar(t) if not r["ok"]]
    if dd:
        raise EinftyError(f"cobar differential fails to square to zero: {dd}")
    with tr.span("cobar.gr_h0_ranks"):
        ranks = gr_h0_ranks(t)
    return {"max_len": op["max_len"], "graded_pieces": ranks}


PIPELINES = {"invariant": run_invariant, "compare": run_compare,
             "coalgebra": run_coalgebra, "cobar": run_cobar}


def run(op: dict, traced: bool) -> dict:
    tr = Tracer(traced)
    out: dict = {}
    t0 = time.perf_counter()
    try:
        with tr.span("op"):
            out["results"] = PIPELINES[op["command"]](tr, op)
    except EinftyError as exc:
        out["error"] = exc.payload()
    out["compute_s"] = time.perf_counter() - t0
    if traced:
        out.update(spans=tr.spans, counters=tr.counters, maxima=tr.maxima,
                   errors=tr.errors)
    return out


if __name__ == "__main__":
    sys.stdout.write(json.dumps(run(json.loads(sys.argv[1]), sys.argv[2] == "1")) + "\n")
