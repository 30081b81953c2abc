"""Benchmark of oacpool: seeded closed-loop workloads, output checks, optional tracing.

Usage, from the repository root::

    python3 bench/run.py --workload paper-sgd --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads (see ``workloads.py``): ``paper-sgd`` trains and evaluates an oacp
model at the paper's shape, ``desk-compare`` runs the four-method comparison
on the three synthetic tasks, and ``reduce-cli`` fits and applies a
dimensionality reduction through two in-process CLI calls.  ``all`` runs each
of them in a fresh process, one after another, so that peak memory is per
workload.

The process pins itself to one CPU and caps BLAS at one thread, so the
workload and the speed probe (see ``probe.py``) share that CPU and nothing
else of the benchmark competes with them.  A run sets the inputs up several
times (at least three, and for at least two seconds) and reports the median
as ``setup_s``.  It then repeats rounds of the workload for ``--seconds``,
starting no round that would end later, while the probe samples the CPU's
speed.  With ``--trace 0`` it prints the end-to-end metrics:

- ``setup_s``: input generation, file writing and model build.
- ``round_norm``: median over the rounds of a round's wall time divided by
  the mean probe sample taken during it, i.e. the round's time in probe
  units.  A round is, for paper-sgd, ``sgd_train`` for two epochs plus
  ``evaluate``; for desk-compare, the three comparisons; for reduce-cli, the
  fit call plus the apply call.  The raw median (``round_s``) is printed
  above the last line and recorded, but drifts with the host's load.
- ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` a warm-up round, checked but not timed, comes first; then
every other round is traced (spans around the calls into each module's
public functions, see ``tracing.py``) and the run prints the per-layer
metrics instead, together with ``trace_overhead_frac``, the traced minus
the untraced median ``round_norm`` over the untraced one.  Every workload
prints every per-layer metric; a layer the workload never calls reads 0.

Whatever the mode, the lines before the last one give each workload's own
figures (``train_inst_per_s``, ``eval_inst_per_s``, ``accuracy``,
``compare_s``, ``reduce_fit_s``, ``reduce_apply_s``) and ``fail_frac``, the
failed over the attempted operations.  The last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run
record with the machine, the versions, the seed and every round is written
to ``bench/results/``, and a traced run writes its spans there as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import shutil
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
WORKLOAD_NAMES = ("paper-sgd", "desk-compare", "reduce-cli")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUPS = 3
MIN_SETUP_SECONDS = 2.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description="oacpool benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _machine(np) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_thread_cap": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def run_all(args) -> int:
    """Run every workload in a fresh process and print their result lines."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "oacpool" / "__init__.py").is_file():
        print(f"error: no oacpool sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import numpy as np

    import oacpool
    from probe import SpeedProbe
    from tracing import Tracer
    from workloads import WORKLOADS

    if Path(oacpool.__file__).resolve().parent != ROOT / "src" / "oacpool":
        print(f"error: imported oacpool from {oacpool.__file__}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        record = measure(args, WORKLOADS[args.workload], workdir, Tracer, SpeedProbe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["machine"] = _machine(np)
    record["commit"] = _git_commit()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    report(args, record, RESULTS / f"{stem}.json")
    return 0


def measure(args, workload_cls, workdir: Path, tracer_cls, probe_cls) -> dict:
    setup_times = []
    while len(setup_times) < MIN_SETUPS or sum(setup_times) < MIN_SETUP_SECONDS:
        workload = None  # let the previous inputs go before making new ones
        started = time.perf_counter()
        workload = workload_cls(args.seed, workdir)
        workload.setup()
        setup_times.append(time.perf_counter() - started)

    tracer = tracer_cls() if args.trace else None
    with probe_cls() as probe:
        rounds = run_rounds(args, workload, tracer, probe)

    plain = [r["round_norm"] for r in rounds if not (r["warmup"] or r["traced"])]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "round_norm": (statistics.median(plain), "probes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if tracer is not None:
        traced = statistics.median(r["round_norm"] for r in rounds if r["traced"])
        metrics = tracer.metrics()
        metrics["trace_overhead_frac"] = (traced / statistics.median(plain) - 1.0, "frac")
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write_spans(spans_path)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "setup_s": setup_times,
        "rounds": rounds,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def run_rounds(args, workload, tracer, probe) -> list[dict]:
    rounds = []
    started = time.perf_counter()
    while True:
        index = len(rounds)
        # a traced run compares traced with untraced rounds, so both must be warm
        warmup = tracer is not None and index == 0
        traced = tracer is not None and index % 2 == 1
        round_started = time.perf_counter()
        if traced:
            tracer.install(index)
        try:
            out = workload.run_round()
        finally:
            if traced:
                tracer.uninstall()
        probe_s = probe.mean_between(round_started, time.perf_counter())
        round_s = sum(out["phases"].values())
        checked = workload.check(out)
        rounds.append({
            "warmup": warmup,
            "traced": traced,
            "round_s": round_s,
            "probe_s": probe_s,
            "round_norm": round_s / probe_s,
            **out["phases"],
            **checked.figures,
            "attempted": checked.attempted,
            "failed": checked.failed,
            "problems": checked.problems,
        })
        if warmup:
            started = time.perf_counter()
            continue
        # stop before a round that would end after --seconds
        typical = statistics.median(r["round_s"] for r in rounds if not r["warmup"])
        elapsed = time.perf_counter() - started
        if elapsed + typical > args.seconds and (tracer is None or index >= 2):
            return rounds


def report(args, record: dict, record_path: Path) -> None:
    rounds = record["rounds"]
    plain = [r for r in rounds if not (r["warmup"] or r["traced"])]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    figures = [k for k in plain[0] if k not in ("warmup", "traced", "attempted", "failed", "problems")]
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"setup {statistics.median(record['setup_s']):.4f} s "
          f"(median of {len(record['setup_s'])})")
    for key in figures:
        values = [r[key] for r in plain]
        print(f"  {key}: median {statistics.median(values):.6g} over {len(values)} rounds")
    print(f"  fail_frac: {failed}/{attempted} = {failed / attempted:.6g}")
    for r in rounds:
        for problem in r["problems"]:
            print(f"  FAILED CHECK: {problem}")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))


if __name__ == "__main__":
    sys.exit(main())
