#!/usr/bin/env python3
"""lodfem benchmark: convergence sweeps through the CLI, timed end to end.

    python3 perfbench/run.py --workload patch-small --seed 10 --seconds 45 --trace 0

Each sweep runs `lodfem.cli.main(["convergence", "--config", ...])` in a
fresh process that imports the repository's `src/`, one process after
another.  With `--trace 0` the last line of standard output is a JSON object
with the end-to-end metrics; with `--trace 1` a traced sweep follows the
untraced ones and the JSON carries the per-layer metrics.  Every sweep's
output is checked.  See perfbench/README.md for the workloads, the metrics
and how to compare two commits.
"""

import argparse
import csv
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

DEFAULT_SEED = 10
SETUP_SPAWNS = 3      # import-only processes per run, besides one per sweep
RUN_LIMIT_S = 170     # every run ends, with or without a result, within 180 s
REL_TOL = 1e-6        # recorded errors may move in the last bits, no further

# BLAS gets one thread, so a run uses at most the corrector thread pool.
CHILD_ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

BASE_CONFIG = {"fine_n": 128, "rhs": "x", "coeff_kind": "checkerboard",
               "coeff_cell": 128, "timings": "off"}

# Contrasts are ones at which every row of the seed commit completes: a
# failing row aborts its corrector assembly early, so a later fix would
# read as a slowdown.
WORKLOADS = {
    # 2048 tiny patches: Python-level sparse work and dense merge rows
    # dominate; the single-thread, high-contrast baseline.
    "patch-small": {"coarse_n": (32,), "levels": (1,), "mode": "localized",
                    "coeff_contrast": 1e4, "threads": 1},
    # 512 patches of KKT dimension ~1000: SuperLU factorization dominates.
    "patch-large": {"coarse_n": (16,), "levels": (2,), "mode": "localized",
                    "coeff_contrast": 20.0, "threads": 2},
    # One whole-domain KKT factorization reused for 225 right-hand sides,
    # once per entry of `levels`.
    "global": {"coarse_n": (16,), "levels": (1, 2), "mode": "global",
               "coeff_contrast": 20.0, "threads": 1},
}

# (err_l2, err_h1, err_energy) per (coarse_n, level_l) at DEFAULT_SEED, from
# the CSV the seed commit writes (12 significant digits).
RECORDED = {
    "patch-small": {
        (32, 0): (8.48961475077e-05, 0.00091817422733, 0.00617099784378),
        (32, 1): (1.56921743231e-05, 0.000426556895604, 0.0025968373968),
    },
    "patch-large": {
        (16, 0): (0.000883264597851, 0.0109896004481, 0.0201808817606),
        (16, 2): (4.16415433805e-05, 0.00225746635815, 0.0045536967922),
    },
    "global": {
        (16, 0): (0.000883264597851, 0.0109896004481, 0.0201808817606),
        (16, 1): (1.67893178744e-05, 0.0011183881139, 0.00225318155774),
        (16, 2): (1.67893178744e-05, 0.0011183881139, 0.00225318155774),
    },
}


def clock():
    # CLOCK_MONOTONIC is shared by all processes, so the child's import time
    # compares with the parent's spawn time.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Process:
    wall_s: float
    setup_s: float | None
    peak_rss_mib: float
    cpu_s: float
    exit_code: int
    result: dict


@dataclass
class Sweep:
    process: Process
    rows: dict                       # (coarse_n, level_l) -> (l2, h1, energy)
    attempted: int
    failed: int
    spans: list = field(default_factory=list)

    @property
    def err_energy_max(self):
        values = [errs[2] for (_, level), errs in self.rows.items() if level >= 1]
        return max(values) if values else math.nan


@contextmanager
def scratch_dir():
    """A fresh directory under .bench_build/ in the checkout, removed after."""
    base = os.path.join(ROOT, ".bench_build")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(prefix="perfbench-", dir=base)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def spawn(workdir, name, cli_args=(), spans_path="-"):
    """Run child.py once and wait for it; wall, set-up and RSS are its own."""
    result_path = os.path.join(workdir, name + ".json")
    with open(os.path.join(workdir, name + ".log"), "wb") as log:
        start = clock()
        proc = subprocess.Popen(
            [sys.executable, CHILD, result_path, spans_path, *cli_args],
            cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL, stdout=log,
            stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = clock() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {}
    if os.path.exists(result_path):
        with open(result_path) as fh:
            result = json.load(fh)
    setup = result["import_done"] - start if "import_done" in result else None
    # ru_maxrss is in KiB on Linux.
    return Process(wall, setup, usage.ru_maxrss / 1024.0,
                   usage.ru_utime + usage.ru_stime, proc.returncode, result)


def config_text(config, seed):
    lines = []
    for key, value in {**config, "seed": seed}.items():
        if isinstance(value, tuple):
            value = ", ".join(str(v) for v in value)
        lines.append(f"{key} = {value}\n")
    return "".join(lines)


def read_rows(path):
    rows = {}
    if not os.path.exists(path):
        return rows
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            key = (int(rec["coarse_n"]), int(rec["level_l"]))
            rows[key] = tuple(float(rec[k]) for k in ("err_l2", "err_h1", "err_energy"))
    return rows


def check_rows(rows, config, exit_code, recorded=None):
    """(rows attempted, rows failed) for one sweep.

    A row fails when it is missing or non-finite, when a patch-order row's
    energy error is not below the plain coarse FEM row (level_l = 0) of the
    same coarse size, when it differs from `recorded` by more than REL_TOL,
    or when the sweep's process exited nonzero.
    """
    expected = [(n, level) for n in sorted(config["coarse_n"])
                for level in (0, *sorted(config["levels"]))]
    failed = 0
    for key in expected:
        errs = rows.get(key)
        baseline = rows.get((key[0], 0))
        if exit_code != 0 or errs is None or \
                not all(math.isfinite(e) for e in errs):
            failed += 1
        elif key[1] > 0 and (baseline is None or not errs[2] < baseline[2]):
            failed += 1
        elif recorded is not None and any(
                abs(e - r) > REL_TOL * abs(r) for e, r in zip(errs, recorded[key])):
            failed += 1
    return len(expected), failed


def run_sweep(config, seed, workdir, name, recorded=None, trace=False):
    """One convergence sweep in a fresh process, checked against `config`."""
    cfg_path = os.path.join(workdir, name + ".cfg")
    csv_path = os.path.join(workdir, name + ".csv")
    spans_path = os.path.join(workdir, name + ".spans.jsonl") if trace else "-"
    with open(cfg_path, "w") as fh:
        fh.write(config_text(config, seed))
    proc = spawn(workdir, name, ["convergence", "--config", cfg_path,
                                 "--out", csv_path], spans_path)
    rows = read_rows(csv_path)
    attempted, failed = check_rows(rows, config, proc.exit_code, recorded)
    spans = tracing.read_spans(spans_path) \
        if trace and os.path.exists(spans_path) else []
    return Sweep(proc, rows, attempted, failed, spans)


def loadavg():
    with open("/proc/loadavg") as fh:
        return " ".join(fh.read().split()[:3])


def cpu_ticks():
    """(steal, total) ticks of all CPUs since boot, from /proc/stat."""
    with open("/proc/stat") as fh:
        ticks = [int(t) for t in fh.readline().split()[1:9]]
    return ticks[7], sum(ticks)


def git_commit():
    """HEAD of the checkout's own .git, or 'unknown' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _samples(values):
    return "samples " + " ".join(f"{v:.4g}" for v in values)


def _json_number(value):
    """Counts stay integers; a non-finite float becomes null."""
    if isinstance(value, int):
        return value
    return value if math.isfinite(value) else None


def _stop(signum, frame):
    # Unwinds through spawn(), which kills the running child, and through
    # scratch_dir(), which removes the scratch files.
    raise SystemExit(f"perfbench: stopped by {signal.Signals(signum).name}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="checkerboard seed of the workload")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="time budget of the measured sweeps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced sweep, report per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lodfem", "cli.py")):
        print(f"perfbench: no lodfem sources in {ROOT}/src", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGALRM, _stop)
    signal.alarm(RUN_LIMIT_S)

    nproc = len(os.sched_getaffinity(0))
    config = {**BASE_CONFIG, **WORKLOADS[args.workload]}
    config["threads"] = min(config["threads"], nproc)
    recorded = RECORDED[args.workload] if args.seed == DEFAULT_SEED else None
    load_start, ticks_start = loadavg(), cpu_ticks()
    start = clock()
    with scratch_dir() as workdir:
        spawn(workdir, "warmup")  # fills the bytecode and file caches; untimed
        setups = [spawn(workdir, f"import{i}").setup_s for i in range(SETUP_SPAWNS)]
        sweeps = []
        while True:
            sweeps.append(run_sweep(config, args.seed, workdir,
                                    f"sweep{len(sweeps)}", recorded))
            # Start another sweep only if it (and the traced one) fits, taking
            # the slowest sweep so far as the estimate.
            slowest = max(s.process.wall_s for s in sweeps)
            needed = (2 if args.trace else 1) * slowest
            if clock() - start + needed > args.seconds:
                break
        traced = run_sweep(config, args.seed, workdir, "traced", recorded,
                           trace=True) if args.trace else None
    load_end, ticks_end = loadavg(), cpu_ticks()
    signal.alarm(0)
    steal = (ticks_end[0] - ticks_start[0]) / max(ticks_end[1] - ticks_start[1], 1)

    checked = sweeps + ([traced] if traced else [])
    attempted = sum(s.attempted for s in checked)
    failed = sum(s.failed for s in checked)
    # Failed sweeps are not timed, unless no sweep passed at all.
    timed = [s for s in sweeps if s.failed == 0] or sweeps
    walls = [s.process.wall_s for s in timed]
    setups += [s.process.setup_s for s in sweeps]
    setups = [s for s in setups if s is not None]
    rss = [s.process.peak_rss_mib for s in timed]
    cpus = [s.process.cpu_s for s in timed]
    versions = next((s.process.result for s in checked if s.process.result), {})

    print(f"lodfem benchmark: workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds:g}, trace {args.trace}, threads {config['threads']}")
    print(f"context: nproc {nproc}, python {versions.get('python', '?')}, "
          f"numpy {versions.get('numpy', '?')}, scipy {versions.get('scipy', '?')}, "
          f"commit {git_commit()}, loadavg start {load_start}, end {load_end}, "
          f"cpu steal {steal:.1%}")
    print(f"samples: wall_s {len(walls)}, setup_s {len(setups)}, "
          f"peak_rss_mb {len(rss)}, rows {attempted}")
    wall_s = statistics.median(walls)
    end_to_end = {
        "wall_s": (wall_s, "s", _samples(walls)),
        "setup_s": (statistics.median(setups) if setups else math.nan, "s",
                    _samples(setups) if setups else ""),
        "peak_rss_mb": (statistics.median(rss), "MiB", _samples(rss)),
        "err_energy_max": (statistics.median(s.err_energy_max for s in timed),
                           "energy_norm", "max over level_l >= 1 rows"),
    }
    for name, (value, unit, note) in end_to_end.items():
        print(f"  {name:<16} {value:>12.6g} {unit:<12} {note}")
    print(f"  {'failed_frac':<16} {failed / attempted:>12.6g} {'ratio':<12} "
          f"{failed} of {attempted} rows failed the check")
    print(f"  {'cpu_s':<16} {statistics.median(cpus):>12.6g} {'s':<12} "
          f"user + system time of the sweep process (context) {_samples(cpus)}")

    if traced is None:
        metrics = {name: (value, unit) for name, (value, unit, _) in end_to_end.items()}
    else:
        metrics = tracing.layer_metrics(traced.spans)
        metrics["trace.overhead_s"] = (traced.process.wall_s - wall_s, "s")
        print(f"traced sweep: wall {traced.process.wall_s:.4g} s; self time by span:")
        for name, own in sorted(tracing.self_times(traced.spans).items(),
                                key=lambda item: -item[1]):
            print(f"  {name:<40} {own:>10.4f} s")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<40} {value:>14.6g} {unit}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": _json_number(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
