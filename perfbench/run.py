"""bierlab benchmark: one run of one workload, one fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``bierlab`` from
``src/``.  The load is a single-client closed loop: each call starts after
the previous one returns.  The timed phase runs whole passes (see
``workloads.py``) until ``--seconds`` of timed work and at least
``MIN_OPS`` ops are done.  Outputs are checked against references after
the timed phase.  With ``--trace 1`` one more pass, a repeat of pass 0, runs
under the tracer and the run reports per-layer metrics instead of
end-to-end ones; per-layer self times are raw seconds.

End-to-end metrics: ``setup_s``, interpreter launch to the first timed
call (median of SETUP_PROBES fresh interpreters); ``wall_s``, the median
time of one pass; ``ops_per_s``, ops over the time of all passes;
``op_p50_ms`` and ``op_p90_ms``, per-op latency percentiles; and
``peak_rss_mb``, this process's ``ru_maxrss`` after the timed phase.  Times
are at a nominal machine speed (see SpeedProbe).  census-canon's op is a
sphere class inside one ``verify`` call, so its ops share that call's time
evenly and its two percentiles coincide.

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it holds the machine facts and
the counts of known program defects a workload probes for outside its
gated ops (``known_defects``).  Both are also written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# p90 needs ten samples beyond it
MIN_OPS = 100
# stop adding passes past this much timed work, whatever MIN_OPS says
MAX_TIMED_S = 60.0
SETUP_PROBES = 11

# Shared 2-vCPU hosts drift in speed: on one, a fixed integer loop took
# 7.5 to 13.9 ms within a 30 s window.  So the timed phase samples the
# speed (SpeedProbe) and reports every time at a nominal speed: each call
# is scaled by CAL_NOMINAL_S over the mean slice time sampled during the
# call and CAL_WINDOW_S either side of it.  There, scaling cut the spread
# of a fixed batch's time over 15 s stretches from 11% to 4%.  Raw pass
# times go to the results file.
CAL_LOOP = 20_000
CAL_INTERVAL_S = 0.025
CAL_NOMINAL_S = 0.0008
CAL_WINDOW_S = 0.25

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="set up, print time.monotonic() and exit (used for setup_s)")
    return parser.parse_args(argv)


def machine_facts() -> dict:
    """nproc, Python, git sha (when the checkout is a git repository), a
    digest of the sources, and the CPU model."""
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "bierlab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "cpu_model": cpu,
    }


class SpeedProbe:
    """Samples the machine's speed during the timed phase.

    A SIGALRM every ``CAL_INTERVAL_S`` runs a fixed integer loop and
    records (end time, duration); signal handlers run between bytecodes,
    so the samples land inside long calls too.
    """

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []

    def slice(self, *_signal):
        start = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOP):
            acc += i & 7
        end = time.perf_counter()
        self.ends.append(end)
        self.durations.append(end - start)

    def spent(self, since: int) -> float:
        return math.fsum(self.durations[since:])

    def factor(self, t0: float, t1: float) -> float:
        """Nominal over mean slice time in [t0 - CAL_WINDOW_S, t1 + CAL_WINDOW_S]."""
        lo = bisect.bisect_left(self.ends, t0 - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.ends, t1 + CAL_WINDOW_S)
        if hi <= lo:
            lo, hi = max(0, lo - 1), min(len(self.ends), lo + 1)
        return CAL_NOMINAL_S * (hi - lo) / math.fsum(self.durations[lo:hi])

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.slice)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_pass(workload, items, probe):
    """Time each call with the probe's slices taken out.  Returns (raw
    latencies, latencies at the nominal speed, returns); each call is
    scaled by the speed sampled during it and CAL_WINDOW_S either side."""
    timings, returns = [], []
    clock = time.perf_counter
    probe.slice()
    for item in items:
        n0 = len(probe.ends)
        t0 = clock()
        try:
            ret = workload.call(item)
        except Exception as exc:  # noqa: BLE001 - any error is a failed op
            ret = workloads.Failure(exc)
        t1 = clock()
        timings.append((t0, t1, t1 - t0 - probe.spent(n0)))
        returns.append(ret)
    probe.slice()
    raw = [dt for _t0, _t1, dt in timings]
    nominal = [dt * probe.factor(t0, t1) for t0, t1, dt in timings]
    return raw, nominal, returns


def probe_setup(args):
    """Median seconds from interpreter launch to ready-to-time, over
    several fresh interpreters."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"]
    probe = SpeedProbe()
    samples = []
    for _ in range(SETUP_PROBES):
        launched = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        elapsed = float(done.stdout.split()[-1]) - launched
        for _ in range(5):
            probe.slice()
        samples.append(elapsed * probe.factor(probe.ends[-5], probe.ends[-1]))
    return statistics.median(samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bierlab" / "__init__.py").is_file():
        print(f"error: no bierlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        if args.probe_setup:
            workload.batch(0)
            workload.reset()
            print(time.monotonic(), flush=True)
            return 0
        return measure(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload) -> int:
    records = []  # (item, output) pairs, checked after the timed phase
    walls, raw_walls = [], []
    latencies = []  # per op, over every pass
    timed = 0.0
    ops = 0
    index = 0
    with SpeedProbe() as probe:
        while index == 0 or (timed < args.seconds or ops < MIN_OPS) and timed < MAX_TIMED_S:
            items = workload.batch(index)
            workload.reset()
            gc.collect()
            raw, lat, returns = run_pass(workload, items, probe)
            raw_walls.append(sum(raw))
            walls.append(sum(lat))
            timed += sum(raw)
            for item, dt, ret in zip(items, lat, returns):
                n = workload.ops(item)
                ops += n
                latencies.extend([dt / n] * n)
                records.append((item, workload.output(item, ret)))
            index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops_per_pass = ops // index

    if args.trace:
        items = workload.batch(0)
        workload.reset()
        gc.collect()
        tracer = tracing.Tracer()
        with SpeedProbe() as probe:
            tracer.start()
            try:
                _raw, lat, returns = run_pass(workload, items, probe)
            finally:
                tracer.stop()
        for item, ret in zip(items, returns):
            ops += workload.ops(item)
            records.append((item, workload.output(item, ret)))
        base = statistics.median(walls)
        values = tracer.metrics((sum(lat) - base) / base)
        units = [row[:2] for row in tracing.LAYER_METRICS]

    failed = sum(workload.failures(item, output) for item, output in records)
    # known defects of the program, measured outside the timed phase and
    # the gated op count, so that their fix shows in the results file
    known = getattr(workload, "known_defects", None)
    defects = known() if known is not None else {}
    for name, row in defects.items():
        print(f"known defect {name}: {row['failed']} of {row['attempted']} cases wrong",
              file=sys.stderr)

    if not args.trace:
        values = {
            "setup_s": probe_setup(args),
            "wall_s": statistics.median(walls),
            "ops_per_s": ops / sum(walls),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[-1],
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    result = {"correct": failed == 0, "attempted": ops, "failed": failed, "metrics": metrics}
    facts = machine_facts()
    facts.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                 trace=args.trace, passes=index, ops_per_pass=ops_per_pass, ops_per_run=ops,
                 pass_walls_s=walls, raw_pass_walls_s=raw_walls, known_defects=defects)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_dir / name, "w", encoding="utf-8") as fh:
        json.dump({"facts": facts, "result": result}, fh, indent=2, sort_keys=True)
    print(json.dumps({"facts": facts}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
