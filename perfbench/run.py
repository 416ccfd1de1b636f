"""End-to-end and per-layer benchmark of the ``repro`` library.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload exact --seed 1 --seconds 10 --trace 0

The parent process never imports ``repro``. It starts fresh child
interpreters with ``PYTHONPATH=src`` and a ``PYTHONHASHSEED`` derived
from ``--seed``:

* set-up children (one discarded warm-up, then ``SETUP_REPEATS`` timed)
  import the library, generate the workload's instances and round-trip
  them through ``.hg``; ``setup_s`` is the median wall time;
* one job child runs ``ROUNDS`` rounds of the workload's fixed job list
  and, with ``--trace 1``, then one more round under the layer tracer;
* with ``--trace 1``, two hash-check children repeat the GA-ghw b06 job
  under two fixed hash seeds.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
per-job rows. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 7
ROUNDS = 2
"""Rounds of the job list per run: a fixed number, so every run of one
seed does the same work. Two rounds take about 16 s per workload on a
2-vCPU Linux VM, inside ``run_seconds`` = 20."""
CHILD_TIMEOUT_S = 150
MISSING = "missing"

sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    HASH_CHECK_JOB,
    HASH_CHECK_SEEDS,
    WORKLOADS,
    Row,
    instance_names,
    prepare_instances,
    run_round,
    run_single,
    subject_for,
)


# ----------------------------------------------------------------------
# child side (runs with repro importable)
# ----------------------------------------------------------------------


def _import_library() -> float:
    """Import every ``repro`` module, so no lazy import lands in a job."""
    import importlib
    import pkgutil

    start = time.perf_counter()
    package = importlib.import_module("repro")
    for info in pkgutil.walk_packages(package.__path__, "repro."):
        importlib.import_module(info.name)
    return time.perf_counter() - start


def _setup(workload: str, workdir: Path) -> tuple[dict, dict]:
    import_s = _import_library()
    instances, timings = prepare_instances(instance_names(workload), workdir)
    timings["import_s"] = import_s
    return instances, timings


def child_setup(args) -> dict:
    _instances, timings = _setup(args.workload, Path(args.workdir))
    return timings


def child_hashcheck(args) -> dict:
    instances, _timings = _setup("heuristic", Path(args.workdir))
    row = run_single(HASH_CHECK_JOB, subject_for(HASH_CHECK_JOB, instances), seed=0)
    return {"ub": row.ub, "ok": row.ok, "reason": row.reason}


def child_jobs(args) -> dict:
    import resource

    workdir = Path(args.workdir)
    instances, _timings = _setup(args.workload, workdir)
    subjects = {
        (job.instance, job.measure): subject_for(job, instances)
        for job in WORKLOADS[args.workload]
    }
    rounds: list[list[Row]] = []
    kernel: list[tuple[float, int]] = []
    for index in range(ROUNDS):
        before = resource.getrusage(resource.RUSAGE_SELF)
        rounds.append(run_round(args.workload, subjects, args.seed,
                                workdir / f"round{index}"))
        after = resource.getrusage(resource.RUSAGE_SELF)
        kernel.append((after.ru_stime - before.ru_stime,
                       after.ru_minflt - before.ru_minflt))
    result = {
        "rounds": [[asdict(row) for row in rows] for rows in rounds],
        "kernel": kernel,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_round(args.workload, subjects, args.seed,
                               workdir / "traced", tracer)
        finally:
            tracer.uninstall()
        result["traced"] = [asdict(row) for row in traced]
        result["resolved"] = {
            name: stats.resolved if not stats.hook_failed else []
            for name, stats in tracer.stats.items()
        }
    return result


def child_main(args) -> None:
    handler = {"setup": child_setup, "jobs": child_jobs,
               "hashcheck": child_hashcheck}[args.child]
    print(json.dumps(handler(args)))


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


class BenchError(RuntimeError):
    pass


def _spawn(mode: str, args, workdir: Path, hash_seed: int) -> tuple[dict, float]:
    """Run one child interpreter; return (its JSON, wall seconds)."""
    env = dict(os.environ)
    env.update(PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            command, env=env, cwd=str(ROOT), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{mode} child exceeded {CHILD_TIMEOUT_S} s") from error
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} child failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _rows(data: list[dict]) -> list[Row]:
    return [Row(**item) for item in data]


def _fingerprints(rows: list[Row]) -> list[tuple]:
    return [row.fingerprint() for row in rows]


def solve_seconds(rounds: list[list[Row]]) -> float:
    """Sum over jobs of each job's median time across the rounds."""
    return sum(statistics.median(times) for times in zip(*(
        [row.seconds for row in rows] for rows in rounds)))


def end_to_end(rounds: list[list[Row]], setup_walls: list[float], peak_rss_mb: float) -> dict:
    first = rounds[0]
    ok = sum(row.ok for row in first)
    return {
        "solve_s": _metric(solve_seconds(rounds), "s"),
        "setup_s": _metric(statistics.median(setup_walls), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "width_sum": _metric(sum(row.ub or 0 for row in first), "count"),
        "gap_sum": _metric(sum(row.gap for row in first), "count"),
        "ok_frac": _metric(ok / len(first), "ratio"),
    }


def per_layer(traced: list[Row], resolved: dict, untraced_solve_s: float,
              kernel: list, setups: list[dict], hash_widths: list) -> dict:
    def total(group: str, field: int, rows=traced) -> float:
        return sum(row.trace[group][field] for row in rows)

    def present(*groups: str) -> bool:
        return all(resolved.get(group) for group in groups)

    CALLS, INCL, SELF, NUM, DEN = range(5)
    metrics: dict[str, dict] = {}

    def put(name: str, unit: str, groups: tuple, compute) -> None:
        metrics[name] = _metric(compute() if present(*groups) else MISSING, unit)

    def layer_self(layer: str) -> float:
        groups = [g for g in resolved if g.split(".")[0] == layer and resolved[g]]
        return sum(total(group, SELF) for group in groups)

    nodes = sum(row.nodes for row in traced)
    races = [row for row in traced if row.solver == "race"]
    put("search.nodes", "count", (), lambda: nodes)
    put("search.nodes_per_s", "1/s", ("search.entry",),
        lambda: _ratio(nodes, total("search.entry", INCL)))
    put("search.self_s", "s", ("search.entry",), lambda: layer_self("search"))
    put("bounds.lower_calls", "count", ("bounds.lower",), lambda: total("bounds.lower", CALLS))
    put("bounds.lower_s", "s", ("bounds.lower",), lambda: total("bounds.lower", INCL))
    put("bounds.mmw_s", "s", ("bounds.mmw",), lambda: total("bounds.mmw", INCL))
    put("bounds.mgr_s", "s", ("bounds.mgr",), lambda: total("bounds.mgr", INCL))
    put("bounds.ksc_s", "s", ("bounds.ksc",), lambda: total("bounds.ksc", INCL))
    put("bounds.upper_s", "s", ("bounds.upper",), lambda: total("bounds.upper", INCL))
    put("bounds.self_s", "s", ("bounds.lower",), lambda: layer_self("bounds"))
    put("reductions.calls", "count", ("reductions.find",), lambda: total("reductions.find", CALLS))
    put("reductions.s", "s", ("reductions.find",), lambda: total("reductions.find", INCL))
    put("reductions.hit_ratio", "ratio", ("reductions.find",),
        lambda: _ratio(total("reductions.find", NUM), total("reductions.find", DEN)))
    put("reductions.pr2_s", "s", ("reductions.pr2",), lambda: total("reductions.pr2", INCL))
    put("reductions.pr2_kept_ratio", "ratio", ("reductions.pr2",),
        lambda: _ratio(total("reductions.pr2", NUM), total("reductions.pr2", DEN)))
    put("reductions.self_s", "s", ("reductions.find",), lambda: layer_self("reductions"))
    put("hypergraphs.elim_calls", "count", ("hypergraphs.elim",),
        lambda: total("hypergraphs.elim", CALLS))
    put("hypergraphs.elim_s", "s", ("hypergraphs.elim",), lambda: total("hypergraphs.elim", INCL))
    put("setcover.greedy_calls", "count", ("setcover.greedy",),
        lambda: total("setcover.greedy", CALLS))
    put("setcover.greedy_s", "s", ("setcover.greedy",), lambda: total("setcover.greedy", INCL))
    put("setcover.exact_calls", "count", ("setcover.exact",),
        lambda: total("setcover.exact", CALLS))
    put("setcover.exact_s", "s", ("setcover.exact",), lambda: total("setcover.exact", INCL))
    put("setcover.self_s", "s", ("setcover.greedy",), lambda: layer_self("setcover"))
    put("decompositions.bags_calls", "count", ("decompositions.bags",),
        lambda: total("decompositions.bags", CALLS))
    put("decompositions.bags_s", "s", ("decompositions.bags",),
        lambda: total("decompositions.bags", INCL))
    put("decompositions.self_s", "s", ("decompositions.bags",),
        lambda: layer_self("decompositions"))
    hits = sum(row.cache_hits for row in traced)
    misses = sum(row.cache_misses for row in traced)
    put("kernels.cache_hits", "count", (), lambda: hits)
    put("kernels.cache_misses", "count", (), lambda: misses)
    put("kernels.cache_hit_ratio", "ratio", (), lambda: _ratio(hits, hits + misses))
    put("genetic.evaluations", "count", (), lambda: sum(r.genetic_evals for r in traced))
    put("genetic.self_s", "s", ("genetic.entry",), lambda: layer_self("genetic"))
    put("localsearch.evaluations", "count", (), lambda: sum(r.local_evals for r in traced))
    put("localsearch.self_s", "s", ("localsearch.entry",), lambda: layer_self("localsearch"))
    put("verify.certify_calls", "count", ("verify.certify",), lambda: total("verify.certify", CALLS))
    put("verify.certify_s", "s", ("verify.certify",), lambda: total("verify.certify", INCL))
    # Writes during the resumes are throttled by wall clock (the resume
    # spec does not carry checkpoint_interval), so only the races count.
    put("portfolio.ckpt_writes", "count", ("portfolio.ckpt",),
        lambda: total("portfolio.ckpt", CALLS, races))
    put("portfolio.ckpt_bytes", "bytes", ("portfolio.ckpt",),
        lambda: total("portfolio.ckpt", NUM, races))
    put("portfolio.ckpt_s", "s", ("portfolio.ckpt",), lambda: total("portfolio.ckpt", INCL))
    put("portfolio.resume_s", "s", ("portfolio.resume",), lambda: total("portfolio.resume", INCL))
    put("portfolio.load_s", "s", ("portfolio.load",), lambda: total("portfolio.load", INCL))
    put("portfolio.bus_offers", "count", ("portfolio.bus",), lambda: total("portfolio.bus", CALLS))
    put("portfolio.bus_improve_ratio", "ratio", ("portfolio.bus",),
        lambda: _ratio(total("portfolio.bus", NUM), total("portfolio.bus", DEN)))
    put("portfolio.self_s", "s", ("portfolio.race",), lambda: layer_self("portfolio"))
    put("obs.report_s", "s", ("obs.report",), lambda: total("obs.report", INCL))
    put("instances.parse_s", "s", (), lambda: statistics.median(s["parse_s"] for s in setups))
    put("instances.import_s", "s", (), lambda: statistics.median(s["import_s"] for s in setups))
    put("interp.sys_s", "s", (), lambda: statistics.median(k[0] for k in kernel))
    put("interp.minor_faults", "count", (), lambda: statistics.median(k[1] for k in kernel))
    traced_solve = sum(row.seconds for row in traced)
    put("trace.overhead", "ratio", (), lambda: _ratio(traced_solve, untraced_solve_s))
    metrics["determinism.hash_width_diff"] = _metric(
        MISSING if None in hash_widths else abs(hash_widths[0] - hash_widths[1]), "count")
    return metrics


def _print_rows(title: str, rows: list[Row]) -> None:
    print(f"# {title}")
    print(f"{'job':<34} {'lb':>4} {'ub':>4} {'nodes':>6} {'evals':>6} {'seconds':>9}  check")
    for row in rows:
        evals = row.genetic_evals + row.local_evals
        lb = "-" if row.lb is None else row.lb
        ub = "-" if row.ub is None else row.ub
        check = "ok" if row.ok else f"FAIL {row.reason}"
        print(f"{row.job:<34} {lb:>4} {ub:>4} {row.nodes:>6} {evals:>6} {row.seconds:>9.4f}  {check}")


def _print_layers(metrics: dict) -> None:
    selfs = {
        name.split(".")[0]: value["value"]
        for name, value in metrics.items()
        if name.endswith(".self_s") and value["value"] != MISSING
    }
    print("# traced self time by layer (s)")
    for layer, seconds in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"{layer:<16} {seconds:9.4f}")


def bench(args) -> dict:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no library sources at {SRC}; run from a full checkout")
    hash_seed = args.seed % 2**32
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        print(f"# workload={args.workload} seed={args.seed} PYTHONHASHSEED={hash_seed}")
        _spawn("setup", args, workdir / "warmup", hash_seed)  # warms __pycache__
        setups, setup_walls = [], []
        for index in range(SETUP_REPEATS):
            timings, wall = _spawn("setup", args, workdir / f"setup{index}", hash_seed)
            setups.append(timings)
            setup_walls.append(wall)
        data, wall = _spawn("jobs", args, workdir / "jobs", hash_seed)
        if wall > args.seconds:
            print(f"# note: the {ROUNDS} fixed rounds took {wall:.1f} s, "
                  f"more than --seconds {args.seconds:g}")
        rounds = [_rows(rows) for rows in data["rounds"]]
        for index, rows in enumerate(rounds):
            _print_rows(f"round {index}", rows)
        correct = all(row.ok for rows in rounds for row in rows)
        repeats = all(_fingerprints(rows) == _fingerprints(rounds[0]) for rows in rounds)
        if not repeats:
            print("# DETERMINISM FAILURE: rounds of one seed differ in counts or widths")
        correct = correct and repeats
        attempted = len(rounds[0])
        failed = sum(not row.ok for row in rounds[0])
        if not args.trace:
            metrics = end_to_end(rounds, setup_walls, data["peak_rss_mb"])
        else:
            traced = _rows(data["traced"])
            _print_rows("traced round", traced)
            if _fingerprints(traced) != _fingerprints(rounds[0]):
                print("# DETERMINISM FAILURE: the traced round differs from the untraced one")
                correct = False
            widths = []
            for hash_check_seed in HASH_CHECK_SEEDS:
                check, _wall = _spawn("hashcheck", args, workdir / f"hash{hash_check_seed}",
                                      hash_check_seed)
                widths.append(check["ub"])
                print(f"# hash-order check: {HASH_CHECK_JOB.label} seed 0 under "
                      f"PYTHONHASHSEED={hash_check_seed}: width {check['ub']}"
                      + ("" if check["ok"] else f" FAIL {check['reason']}"))
                correct = correct and check["ok"]
            if widths[0] != widths[1]:
                print("# hash-order check: widths DIFFER (bounds/upper.py::_greedy_ordering "
                      "breaks ties by iterating a set of vertices)")
            metrics = per_layer(traced, data["resolved"], solve_seconds(rounds), data["kernel"],
                                setups, widths)
            _print_layers(metrics)
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="the time the fixed work is sized for (see ROUNDS)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "jobs", "hashcheck"))
    parser.add_argument("--workdir")
    args = parser.parse_args(argv)
    if args.child:
        child_main(args)
        return 0
    try:
        result = bench(args)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
