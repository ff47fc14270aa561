"""The graphpot benchmark: one seeded workload, timed end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The workload's inputs are generated from
the seed (perfbench/inputs.py).  Its operations then run as a closed loop,
one at a time, each in a fresh interpreter with the checkout's ``src``
first on the path, so every operation pays interpreter start and imports
as a user does.  The run goes over the operations in rounds (see
run_rounds), within S seconds, and each operation counts with its fastest
run.  After the timed loop, every output is checked (perfbench/checks.py).

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics of a traced
run (perfbench/tracing.py), whose traced rounds alternate with untraced
ones to measure the tracing overhead.  The line before it records the environment.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# SETUP_GROUPS set-ups are timed, each as the fastest of SETUP_STARTS
# interpreter starts, as an operation counts with its fastest run.
SETUP_GROUPS = 7
SETUP_STARTS = 3
SETUP_IMPORTS = ("import graphpotentials.cli, graphpotentials.periods, "
                 "graphpotentials.tqft, graphpotentials.mutation")
OP_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.overhead_s": "s", "trace.overhead_s": "s",
    "periods.walk_s": "s", "periods.walk_calls": "count", "periods.max_vars": "count",
    "periods.max_monomials": "count", "periods.max_bits": "bits",
    "tqft.t1_kernel_s": "s", "tqft.matmul_s": "s", "tqft.matmul_calls": "count",
    "tqft.trace_s": "s", "tqft.kernel_dim": "count", "tqft.max_entry_bits": "bits",
    "tqft.matmul_mults": "count", "tqft.matmul_useful": "ratio",
    "tqft.k_state_s": "s", "tqft.glue_s": "s", "tqft.wdvv_s": "s",
    "graphs.canonical_form_s": "s", "graphs.canonical_form_calls": "count",
    "graphs.orders_tried": "count", "graphs.elementary_transformation_s": "s",
    "graphs.validate_s": "s",
    "potential.graph_potential_s": "s", "potential.graph_potential_calls": "count",
    "mutation.mutate_s": "s", "mutation.report_s": "s", "mutation.moves": "count",
    "mutation.potentials_per_move": "count/move",
    "algebra.rexpr_s": "s", "algebra.series_s": "s",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Result:
    op: object
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    trace: dict | None  # the spans document of a traced operation


def _spawn(cmd, env, out_path: Path) -> tuple[float, float, int]:
    """Run a child to its end; (wall seconds, peak RSS in MB, exit code)."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def run_op(op, workdir: Path, env: dict, traced: bool) -> Result:
    out = workdir / f"{op.id}.out"
    spans = workdir / f"{op.id}.spans.json"
    spans.unlink(missing_ok=True)
    if traced:
        cmd = [sys.executable, str(HERE / "tracing.py"), str(spans), op.kind, *op.argv]
    elif op.kind == "cli":
        cmd = [sys.executable, "-m", "graphpotentials.cli", *op.argv]
    else:
        cmd = [sys.executable, str(HERE / "jobs.py"), *op.argv]
    wall, rss, code = _spawn(cmd, env, out)
    doc = json.loads(spans.read_text()) if traced and spans.exists() else None
    return Result(op, wall, rss, code, out.read_text(), doc)


def run_rounds(ops, workdir, env, seconds: float, modes=(False,)) -> list[list[list[Result]]]:
    """Round r runs every operation with more than r rounds, once in each
    mode (untraced or traced), and returns the rounds of each mode.  A round
    after the first starts only if, at the times its operations took in the
    first round, it would end within ``seconds`` of the start; a slow machine
    makes fewer rounds, not a longer run."""
    out = [[] for _ in modes]
    t0 = time.perf_counter()
    for r in range(max(op.rounds for op in ops)):
        if r:
            expected = sum(res.wall_s for rounds in out for res in rounds[0] if res.op.rounds > r)
            if time.perf_counter() - t0 + expected > seconds:
                break
        for rounds, traced in zip(out, modes):
            rounds.append([run_op(op, workdir, env, traced) for op in ops if op.rounds > r])
    return out


def measure_setup(workdir: Path, env: dict) -> list[float]:
    cmd = [sys.executable, "-c", SETUP_IMPORTS]
    walls = []
    for _ in range(SETUP_GROUPS * SETUP_STARTS):
        wall, _, code = _spawn(cmd, env, workdir / "setup.out")
        if code != 0:
            raise RuntimeError("importing graphpotentials failed: "
                               + (workdir / "setup.err").read_text())
        walls.append(wall)
    return [min(walls[i:i + SETUP_STARTS]) for i in range(0, len(walls), SETUP_STARTS)]


def check_rounds(rounds, refs) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems).  An operation fails when it exits
    non-zero; the outputs of the others are checked."""
    import checks

    attempted = failed = 0
    problems: list[str] = []
    seen: set = set()
    for results in rounds:
        ok = []
        for r in results:
            attempted += 1
            if r.code != 0:
                failed += 1
            else:
                ok.append((r.op, r.stdout))
        key = tuple((op.id, text) for op, text in ok)
        if key not in seen:  # rounds with identical outputs are checked once
            seen.add(key)
            problems += checks.check_round(ok, refs)
    return attempted, failed, problems


def _dense_outcome(p, order: int) -> str:
    """What backend="auto" does with one brute-force instance: the dense
    backend runs it, or the reason it does not, as the library states it."""
    from graphpotentials.periods import constant_terms_of_powers

    try:
        constant_terms_of_powers(p, order, backend="numba")
    except ValueError as exc:
        return f"pure dict walk: {exc}"
    return "dense int64 stencil"


def environment(ops) -> dict:
    import numpy

    from graphpotentials.graphs import graph_from_json
    from graphpotentials.potential import graph_potential

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    outcomes = set()
    for op in ops:
        if "brute" in op.argv:
            with open(op.argv[op.argv.index("--graph") + 1]) as fh:
                p = graph_potential(graph_from_json(json.load(fh))).potential
            outcomes.add(_dense_outcome(p, int(op.argv[op.argv.index("--order") + 1])))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_imports": numba_imports,
        "brute_backend_auto": "; ".join(sorted(outcomes)) or "no brute-force operations",
    }


def dense_vs_pure_case() -> str:
    """The brute-force backends on every genus-3 class at order 8."""
    from graphpotentials.graphs import enumerate_trivalent, with_colors
    from graphpotentials.periods import constant_terms_of_powers
    from graphpotentials.potential import graph_potential

    agree = 0
    for g in enumerate_trivalent(3):
        for colored in (g, with_colors(g, {"v0": 1})):
            p = graph_potential(colored).potential
            try:
                dense = constant_terms_of_powers(p, 8, "numba")
            except ValueError as exc:
                return f"dense path not run: {exc}"
            if dense != constant_terms_of_powers(p, 8, "pure"):
                raise RuntimeError("dense and pure brute force disagree")
            agree += 1
    return f"dense and pure agree on {agree} instances"


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def _op_walls(rounds) -> list[float]:
    """Each operation's fastest wall time of the run.  The program is
    deterministic, so a slower run differs only by what else the machine
    was doing at the time."""
    fastest: dict = {}
    for results in rounds:
        for r in results:
            fastest[r.op.id] = min(r.wall_s, fastest.get(r.op.id, r.wall_s))
    return list(fastest.values())


def timed_run(ops, workdir, env, seconds) -> tuple[dict, list]:
    setup = measure_setup(workdir, env)
    (rounds,) = run_rounds(ops, workdir, env, seconds)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(_op_walls(rounds)),
        # the upper median is the time of one operation, never the mean of
        # a quick and a slow one
        "op_p50_s": statistics.median_high(_op_walls(rounds)),
        "peak_rss_mb": max(r.rss_mb for results in rounds for r in results),
    }
    return _metrics(values, END_TO_END_UNITS), rounds


def traced_run(ops, workdir, env, seconds, spans_path: Path) -> tuple[dict, list]:
    import inputs
    import tracing

    # Every operation runs in every traced round, so that the rounds are
    # alike and the median over them is one round's figure.  Untraced and
    # traced runs alternate, so that both see the machine alike.
    ops = [dataclasses.replace(op, rounds=inputs.ROUNDS) for op in ops]
    untraced, traced = run_rounds(ops, workdir, env, seconds, modes=(False, True))
    per_round = [tracing.layer_metrics([(r.wall_s, r.trace) for r in results if r.trace])
                 for results in traced]
    values = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    values["trace.overhead_s"] = sum(_op_walls(traced)) - sum(_op_walls(untraced))
    spans_path.parent.mkdir(exist_ok=True)
    with open(spans_path, "w") as fh:
        json.dump({"columns": ["name", "start", "end", "parent", "attrs", "op"],
                   "spans": [span + [f"{n}:{r.op.id}"] for n, results in enumerate(traced)
                             for r in results if r.trace for span in r.trace["spans"]]}, fh)
    return _metrics(values, PER_LAYER_UNITS), untraced + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that each check rejects a corrupted result")
    args = parser.parse_args(argv)
    if not (SRC / "graphpotentials" / "cli.py").is_file():
        print(f"perfbench: no library sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import inputs

    if args.self_test:
        results = checks.self_test()
        for name, rejected in results:
            print(f"{'PASS' if rejected else 'FAIL'} {name} is rejected")
        return 0 if all(rejected for _, rejected in results) else 1
    if args.workload not in inputs.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(inputs.WORKLOADS)}")

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        ops = inputs.build(args.workload, args.seed, workdir)
        env = _child_env()
        info = {"workload": args.workload, "seed": args.seed, "environment": environment(ops)}
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-{args.seed}.json"
            metrics, rounds = traced_run(ops, workdir, env, args.seconds, spans_path)
            info["spans"] = str(spans_path.relative_to(ROOT))
            if args.workload == "brute-expansion":
                info["dense_vs_pure"] = dense_vs_pure_case()
        else:
            metrics, rounds = timed_run(ops, workdir, env, args.seconds)
        attempted, failed, problems = check_rounds(rounds, checks.References())
        failed_ops = {r.op.id for results in rounds for r in results if r.code != 0}
        if args.workload == "brute-expansion":
            problems += checks.check_enumeration()
        if args.workload == "mutation-classes":
            # The genus-3 search runs once a round, in-process and outside
            # the timed loop, so that every run fails the same share of what
            # it attempts.  It falls short every time; see checks.reach_genus3.
            for _ in rounds:
                attempted += 1
                shortfall = checks.reach_genus3()
                if shortfall:
                    failed += 1
                    failed_ops.add(shortfall)
        info["failed_ops"] = sorted(failed_ops)
        info["rounds"] = len(rounds)
        info["problems"] = problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(info))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
