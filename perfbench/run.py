"""Benchmark driver for the einfty command line.

    python3 perfbench/run.py --workload grid-invariant --seed 1 --seconds 28 --trace 0

Run from the root of a checkout: the program under test is ``src/einfty``
there, and nothing installed elsewhere is used.  A closed loop with one
client runs one real ``einfty`` command at a time, each in a fresh
interpreter, on inputs generated from the seed, and checks every output
against an oracle from ``inputs.py``.  With ``--trace 1`` the same ops run
in-process in ``worker.py`` instead, once with spans and once without, and
the per-layer metrics come from the spans.  See README.md for the
workloads, the metrics and what each is expected to move.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Scratch files go under ``perfbench/.work``.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 11
INPUTS_PER_RUN = 3       # relabellings of a simplicial set cycled in one run
OP_TIMEOUT_S = 120
HARD_LIMIT_S = 170       # a run ends well inside the 180 s it is allowed


# -- workloads ------------------------------------------------------------------
#
# A workload writes its inputs under a directory and returns its op cycle:
# a list of (spec, check), where spec is the worker's op dict and check maps
# a CLI-shaped report to None (conforms) or a reason.


def _sset_family(canon, command, check, extra=None):
    def make(rng, where):
        ops = []
        for t in range(INPUTS_PER_RUN):
            text, names = inputs.render_sset(canon, rng)
            path = where / f"in{t}.sset"
            path.write_text(text)
            spec = {"command": command, "inputs": [_rel(path)], **(extra or {})}
            ops.append((spec, lambda rep, names=names: check(rep, names)))
        return ops
    return make


def _massey_window(rng, where):
    ops = []
    for t in range(2):
        w, w2 = inputs.window_pair(4, rng)
        a, b = where / f"w{t}.coalg", where / f"w{t}p.coalg"
        a.write_text(inputs.render_window(w))
        b.write_text(inputs.render_window(w2))
        # invariant on both windows, then their compare: with two invariants
        # to one compare, the median and op_tail_s (a low percentile on
        # short runs) both stay inside the invariant mode
        for path, win in ((a, w), (b, w2)):
            ops.append(({"command": "invariant", "inputs": [_rel(path)]},
                        lambda rep, win=win: inputs.check_window_invariant(rep, win)))
        ops.append(({"command": "compare", "inputs": [_rel(a), _rel(b)]},
                    inputs.check_window_compare))
    return ops


WORKLOADS = {
    "grid-invariant": _sset_family(
        inputs.grid_torus(3), "invariant",
        lambda rep, names: inputs.check_torus_invariant(rep)),
    "cup-simplex": _sset_family(
        inputs.simplex(4), "coalgebra",
        lambda rep, names: inputs.check_simplex_coalgebra(rep, 4, names)),
    "massey-window": _massey_window,
    "cobar-surface": _sset_family(
        inputs.surface(3), "cobar",
        lambda rep, names: inputs.check_surface_cobar(rep, 3, 3), {"max_len": 3}),
}

# What each workload was chosen for, checked on the traced run:
# (description, predicate over {span name: share of traced op time}).
SHARE_PREDICTIONS = {
    "grid-invariant": [
        ("coalgebra.verify leads", lambda sh: _leader(sh) == "coalgebra.verify"),
        ("coalgebra.cup_table below 5%", lambda sh: sh.get("coalgebra.cup_table", 0) < 0.05)],
    "cup-simplex": [
        ("coalgebra.cup_table at least 25%",
         lambda sh: sh.get("coalgebra.cup_table", 0) >= 0.25)],
    "massey-window": [
        ("invariants.massey_invariant leads",
         lambda sh: _leader(sh) == "invariants.massey_invariant")],
    "cobar-surface": [
        ("cobar.gr_h0_ranks leads", lambda sh: _leader(sh) == "cobar.gr_h0_ranks")],
}


def _leader(shares):
    return max(shares, key=shares.get)


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def cli_argv(spec: dict) -> list[str]:
    argv = [spec["command"], *spec["inputs"]]
    if "max_len" in spec:
        argv += ["--max-len", str(spec["max_len"])]
    return argv


# -- processes ----------------------------------------------------------------------


def _env() -> dict:
    """Children import einfty from this checkout and cache its bytecode, as
    an installed package would, whatever the caller's environment says."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str], timeout: float):
    """Run one child; returns (seconds spawn->exit, peak RSS MB, exit code, stdout)."""
    err_path = WORK / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=_env(),
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
    # reaped here with wait4 for its rusage; tell Popen so it does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024, proc.returncode, out


def setup(workload: str, seed: int, where: Path):
    """Generate the inputs under ``where`` and check that the checkout's
    einfty imports.

    The import is also the first use of the program, so bytecode compiles
    here and not inside a timed op.  Returns (ops, import seconds).
    """
    shutil.rmtree(where, ignore_errors=True)
    where.mkdir(parents=True)
    ops = WORKLOADS[workload](random.Random(seed), where)
    elapsed, _, code, out = spawn(
        ["-c", "import einfty.cli; print(einfty.cli.__file__)"], OP_TIMEOUT_S)
    if code != 0 or not Path(out.decode().strip()).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"einfty.cli does not import from {SRC}: {out!r}")
    return ops, elapsed


class Setups:
    """The set-ups of one run: the first makes the inputs the ops use; the
    repeats are spread over the run, so that their median sees the same
    machine as the ops do, and must write byte-identical inputs."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.times: list[float] = []
        self.imports: list[float] = []
        self.ops = self._one(WORK / workload)
        self.files = _snapshot(WORK / workload)

    def _one(self, where: Path):
        t = time.perf_counter()
        ops, imported = setup(self.workload, self.seed, where)
        self.times.append(time.perf_counter() - t)
        self.imports.append(imported)
        return ops

    def again(self) -> None:
        where = WORK / f"{self.workload}.again"
        self._one(where)
        if _snapshot(where) != self.files:
            raise SystemExit(f"seed {self.seed} does not reproduce the inputs")

    def due(self, fraction: float) -> bool:
        """Whether a repeat is due when ``fraction`` of the run has passed."""
        return len(self.times) < min(SETUP_REPEATS, 1 + fraction * (SETUP_REPEATS - 1))


def _snapshot(where: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(where.iterdir())}


# -- measuring ----------------------------------------------------------------------------


def _check(report: dict, check) -> str | None:
    if not report.get("ok", True) or "results" not in report:
        return f"error report {report.get('error')}"
    return check(report)


def closed_loop(setups: Setups, seconds: float, started: float, run_one):
    """Run the op cycle until ``seconds`` have passed, with the set-up
    repeats in between; returns (records, wall seconds of the ops alone)."""
    ops = setups.ops
    records = []
    t0 = time.perf_counter()
    paused = 0.0
    i = 0
    while i == 0 or time.perf_counter() - t0 < seconds:
        remaining = HARD_LIMIT_S - (time.perf_counter() - started)
        if remaining < 5:
            break
        spec, check = ops[i % len(ops)]
        records.append(run_one(spec, check, min(OP_TIMEOUT_S, remaining)))
        i += 1
        if setups.due((time.perf_counter() - t0) / seconds):
            t = time.perf_counter()
            setups.again()
            paused += time.perf_counter() - t
    wall = time.perf_counter() - t0 - paused
    while len(setups.times) < SETUP_REPEATS:
        setups.again()
    return records, wall


def run_cli(spec, check, timeout, seen: dict):
    argv = cli_argv(spec)
    elapsed, rss, code, out = spawn(["-m", "einfty.cli", *argv], timeout)
    reason = None
    if code != 0:
        reason = f"exit code {code}: {(WORK / 'stderr.txt').read_text()[-300:]!r}"
    else:
        try:
            reason = _check(json.loads(out), check)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            reason = f"unreadable report: {exc!r}"
    key = tuple(argv)
    repeat = key in seen
    if repeat and reason is None and seen[key] != out:
        reason = "output differs from an earlier op on the same input"
    seen.setdefault(key, out)
    return {"argv": argv, "latency": elapsed, "rss": rss, "failed": reason,
            "repeat": repeat}


def run_worker(spec, check, timeout, traced: bool, cli_results):
    """One in-process op; its results must also equal the CLI's on that input."""
    _, _, code, out = spawn([str(HERE / "worker.py"), json.dumps(spec),
                             "1" if traced else "0"], timeout)
    if code != 0:
        return {"failed": f"worker exit code {code}: "
                          f"{(WORK / 'stderr.txt').read_text()[-300:]!r}"}
    try:
        rec = json.loads(out)
        rec["failed"] = _check(rec, check)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return {"failed": f"unreadable worker output: {exc!r}"}
    if not rec["failed"] and rec["results"] != cli_results[tuple(cli_argv(spec))]:
        rec["failed"] = "in-process results differ from the CLI's"
    return rec


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def untraced(workload, seed, seconds, started):
    setups = Setups(workload, seed)
    seen: dict = {}
    recs, wall = closed_loop(setups, seconds, started,
                             lambda spec, check, to: run_cli(spec, check, to, seen))
    if not any(r["repeat"] for r in recs):
        # too few ops to revisit an input: repeat the first one, untimed
        spec, check = setups.ops[0]
        recs.append(run_cli(spec, check, OP_TIMEOUT_S, seen))
        recs[-1]["latency"] = None
    timed = [r for r in recs if r["latency"] is not None]
    lat = [r["latency"] for r in timed]
    failed = [r for r in recs if r["failed"]]
    tail_s, pct = tail(lat)
    metrics = {
        "ops_per_s": (sum(1 for r in timed if not r["failed"]) / wall, "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (max(r["rss"] for r in recs), "MB"),
        "setup_s": (statistics.median(setups.times), "s"),
    }
    print(f"workload {workload}, seed {seed}: {len(timed)} ops in {wall:.3f} s, "
          f"one client, closed loop")
    print(f"  ops_failed_ratio {len(failed) / len(recs)} (failed {len(failed)} "
          f"of {len(recs)} attempted)")
    print(f"  op_tail_s is p{pct:.1f} of n = {len(lat)}")
    print(f"  determinism: {sum(r['repeat'] for r in recs)} ops repeated an "
          f"earlier input and were compared byte for byte")
    for r in failed[:5]:
        print(f"  FAILED {' '.join(r['argv'])}: {r['failed']}")
    return recs, failed, metrics


PER_LAYER_SPANS = [
    "simplicial.parse_sset", "simplicial.normalized_chains",
    "formats.load_structure_fixture",
    "coalgebra.cup_table", "coalgebra.operators", "coalgebra.verify",
    "coalgebra.reduce_structure", "coalgebra.operator_dump",
    "homology.build_sdr", "transfer.transfer",
    "invariants.window_from_package", "invariants.sq_dual_invariant",
    "invariants.massey_invariant", "invariants.group_invariants",
    "invariants.is_zero", "invariants.class_equals",
    "cobar.build_cobar", "cobar.check_d_squared_cobar", "cobar.gr_h0_ranks",
]
PER_LAYER_COUNTS = {   # name -> unit; per-op means of the worker's counters
    "simplicial.cells": "count", "coalgebra.operator_nnz": "count",
    "chains.tensor_words": "count", "homology.sdr_nnz": "count",
    "transfer.hat_nnz": "count", "invariants.relations_cols": "count",
    "invariants.relations_nnz": "count", "cobar.words": "count",
    "cobar.d_nnz": "count",
}
PER_LAYER_MAXIMA = {   # name -> unit; the largest of the worker's maxima
    "homology.sdr_max_bits": "bits", "invariants.relations_max_bits": "bits",
}
LAYERS = ["simplicial", "formats", "coalgebra", "homology", "transfer",
          "invariants", "cobar"]


def self_times(spans) -> dict[str, float]:
    out: dict[str, float] = {}
    for _, parent, name, start, end in spans:
        out[name] = out.get(name, 0.0) + (end - start)
        if parent is not None:
            pname = spans[parent][2]
            out[pname] = out.get(pname, 0.0) - (end - start)
    return out


def traced(workload, seed, seconds, started):
    setups = Setups(workload, seed)
    # the CLI's own results on every input, untimed, as the reference
    cli_results = {}
    for spec, check in setups.ops:
        argv = cli_argv(spec)
        _, _, code, out = spawn(["-m", "einfty.cli", *argv], OP_TIMEOUT_S)
        try:
            cli_results[tuple(argv)] = json.loads(out)["results"]
        except (ValueError, KeyError, TypeError):
            cli_results[tuple(argv)] = None
    pairs = []

    def run_pair(spec, check, timeout):
        on = run_worker(spec, check, timeout / 2, True, cli_results)
        off = run_worker(spec, check, timeout / 2, False, cli_results)
        pairs.append((spec, on, off))
        return on

    closed_loop(setups, seconds, started, run_pair)
    recs = [r for _, on, off in pairs for r in (on, off)]
    failed = [r for r in recs if r["failed"]]
    good = [(spec, on, off) for spec, on, off in pairs
            if not on["failed"] and not off["failed"]]
    n = max(len(good), 1)
    selfs: dict[str, float] = {}
    counts: dict[str, float] = {}
    maxima: dict[str, int] = {}
    errors = {layer: 0 for layer in LAYERS}
    for _, on, _ in good:
        for name, v in self_times(on["spans"]).items():
            selfs[name] = selfs.get(name, 0.0) + v
        for name, v in on["counters"].items():
            counts[name] = counts.get(name, 0) + v
        for name, v in on["maxima"].items():
            maxima[name] = max(maxima.get(name, 0), v)
    selfs = {name: v / n for name, v in selfs.items()}
    counts = {name: v / n for name, v in counts.items()}
    for rec in recs:
        for layer, v in rec.get("errors", {}).items():
            errors[layer] = errors.get(layer, 0) + v
    hits, misses = counts.get("coalgebra.cup_table.hits", 0), counts.get(
        "coalgebra.cup_table.misses", 0)
    on_s = sum(on["compute_s"] for _, on, _ in good) / n
    off_s = sum(off["compute_s"] for _, _, off in good) / n
    metrics = {"cli.startup_s": (statistics.median(setups.imports), "s")}
    for name in PER_LAYER_SPANS:
        metrics[f"{name}.self_s"] = (selfs.get(name, 0.0), "s")
    for name, unit in PER_LAYER_COUNTS.items():
        metrics[name] = (counts.get(name, 0), unit)
    for name, unit in PER_LAYER_MAXIMA.items():
        metrics[name] = (maxima.get(name, 0), unit)
    metrics["coalgebra.cup_table.misses"] = (misses, "count")
    metrics["coalgebra.cup_table.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (errors[layer], "count")
    metrics["trace.op_s"] = (on_s, "s")
    metrics["trace.overhead_s"] = (on_s - off_s, "s")

    WORK.mkdir(exist_ok=True)
    (WORK / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(
        [{"op_id": i, "op": spec, "spans": on.get("spans", [])}
         for i, (spec, on, _) in enumerate(pairs)]))

    total = sum(v for v in selfs.values())
    shares = {k: v / total for k, v in selfs.items()} if total else {}
    print(f"workload {workload}, seed {seed}: {len(pairs)} traced ops, each also "
          f"run untraced; {len(failed)} of {len(recs)} failed")
    print(f"  in-process op time {on_s:.4f} s traced, {off_s:.4f} s untraced, "
          f"tracing overhead {on_s - off_s:+.4f} s")
    print("  self time per op, ranked:")
    for name, v in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"    {name:38s} {v:9.4f} s {100 * shares.get(name, 0):6.1f}%")
    for desc, pred in SHARE_PREDICTIONS[workload]:
        ok = bool(shares) and pred(shares)
        print(f"  layer-share check: {desc}: {'PASS' if ok else 'FAIL'}")
    for r in failed[:5]:
        print(f"  FAILED: {r['failed']}")
    return recs, failed, metrics


def main() -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "einfty" / "cli.py").is_file():
        print(f"no einfty sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    run = traced if args.trace else untraced
    recs, failed, metrics = run(args.workload, args.seed, args.seconds, started)
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(recs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
