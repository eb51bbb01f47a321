"""Run one benchmark workload through `cvcsp.cli.main` in-process.

    python3 perfbench/run.py --workload classify-mix --seed 1 --seconds 40 --trace 0

The program is taken from `src/` of the checkout this file sits in.  The
run generates its inputs from the seed, then makes whole passes ("rounds")
over the fixed operation set: at least five, and more while another fits in
`--seconds`.  Before the first round and after each one it takes a sample of
the program's one-time set-up, so that set-up samples and rounds see the
same machine.  Each operation's time is its median over the rounds, and the
pass time is the median wall time of a round.  Afterwards every output is
checked against computations made apart from the program; a wrong output, or
a failure other than the known budget fault, ends the run with exit code 3
and names the input.  The last line of stdout is one JSON object: correct,
attempted, failed and the metrics.  With `--trace 1` a single round runs
under per-layer spans and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BUILDERS, WrongOutput  # this file's directory is sys.path[0]

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One process, one thread, one hash seed: re-executed with these if unset.
FIXED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
MIN_ROUNDS = 5  # per-operation medians over rounds shrug off a slow spell
TAIL_BEYOND = 10  # the tail percentile leaves at least this many operations above it

EXIT_WRONG = 3
EXIT_NO_PROGRAM = 2

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import cvcsp.cli\n"
    "print(time.perf_counter() - t)\n"
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def time_import() -> float:
    """`import cvcsp.cli` in a fresh interpreter, in seconds."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    return float(out.stdout.strip().splitlines()[-1])


def call(cli, argv):
    """One CLI call: (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


class SetUp:
    """Samples of the program's one-time set-up: a fresh interpreter's
    `import cvcsp.cli`, plus on solve-mix the time to fill the classification
    cache, each fill in a fresh copy of the inputs.  The first fill's copy is
    the one the timed calls use."""

    def __init__(self, cli, work, inputs: str):
        self.cli, self.work, self.inputs = cli, work, inputs
        self.samples = []
        self.cache_dir = inputs

    def sample(self) -> None:
        fill_s = 0.0
        if self.work.setup:
            target = f"{self.inputs}-fill{len(self.samples)}"
            shutil.copytree(self.inputs, target)
            start = time.perf_counter()
            for argv in self.work.setup:
                code, _, _, err = call(self.cli, relocate(argv, self.inputs, target))
                if code != 0:
                    raise WrongOutput(f"set-up call {' '.join(argv[:2])} exited {code}: {err.strip()}")
            fill_s = time.perf_counter() - start
            if self.samples:
                shutil.rmtree(target)
            else:
                self.cache_dir = target
        self.samples.append(time_import() + fill_s)


def relocate(argv, old: str, new: str):
    return [new + a[len(old):] if a.startswith(old + os.sep) else a for a in argv]


def timed_rounds(cli, ops, seconds: float, min_rounds: int, rewrite, between):
    """Whole rounds over the operations: at least `min_rounds`, then more while
    another one fits in `seconds`, calling `between()` after each round;
    returns the results of each round and each round's wall time."""
    rounds, walls = [], []
    start = time.perf_counter()
    while True:
        results = []
        round_start = time.perf_counter()
        for op in ops:
            try:
                results.append(call(cli, rewrite(op.argv)))
            except Exception as exc:
                raise WrongOutput(f"{op.name}: {type(exc).__name__}: {exc}") from exc
        walls.append(time.perf_counter() - round_start)
        rounds.append(results)
        between()
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds, walls


def tail_rank(count: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND operations above it."""
    p = 99
    while p > 50 and count * (100 - p) / 100 < TAIL_BEYOND:
        p -= 1
    return p


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, -(-p * len(ordered) // 100) - 1)
    return ordered[k]


def main(argv=None) -> int:
    args = parse_args(argv)
    if any(os.environ.get(k) != v for k, v in FIXED_ENV.items()):
        env = dict(os.environ, **FIXED_ENV)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)

    if args.workload not in BUILDERS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(BUILDERS)}", file=sys.stderr)
        return 1
    if not (SRC / "cvcsp" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'cvcsp'}; run from a checkout of the repository", file=sys.stderr)
        return EXIT_NO_PROGRAM

    run_dir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    inputs = str(run_dir / "inputs")
    os.makedirs(inputs)
    try:
        work = BUILDERS[args.workload](args.seed, inputs)
        sys.path.insert(0, str(SRC))
        import cvcsp.cli as cli

        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        setup = SetUp(cli, work, inputs)
        setup.sample()
        # a traced run makes exactly one round, so its counts are per round
        rounds, walls = timed_rounds(
            cli, work.ops, 0 if args.trace else args.seconds, 1 if args.trace else MIN_ROUNDS,
            lambda a: relocate(a, inputs, setup.cache_dir),
            (lambda: None) if args.trace else setup.sample,
        )
        # read before the checks load numpy and scipy into this process
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        import checks

        checks.check_rounds(work.ops, rounds)
    except WrongOutput as exc:
        print(f"error: wrong output: {exc}", file=sys.stderr)
        return EXIT_WRONG
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run_dir.parent.rmdir()

    # one time per operation: its median over the rounds
    times = [statistics.median(r[i][1] for r in rounds) for i in range(len(work.ops))]
    ok = [not checks.is_failure(code, err) for code, _, _, err in rounds[0]]
    latencies = [t for t, good in zip(times, ok) if good]
    attempted = len(work.ops) * len(rounds)
    failed = ok.count(False) * len(rounds)
    if not latencies:
        print("error: every operation failed", file=sys.stderr)
        return 1
    pass_s = statistics.median(walls)
    if tracer is not None:
        print(
            f"traced round: {pass_s:.4f} s for {len(work.ops)} operations, "
            f"{len(latencies) / pass_s:.4f} successful operations/s",
            file=sys.stderr,
        )
        metrics = {}
        for name, value in tracer.metrics().items():
            if value is None:
                print(f"per-layer metric {name} is absent: its function is gone", file=sys.stderr)
            metrics[name] = {"value": value, "unit": spans.METRICS[name][0]}
    else:
        p = tail_rank(len(latencies))
        print(
            f"{len(rounds)} rounds of {len(work.ops)} operations; median round {pass_s:.4f} s; "
            f"{len(setup.samples)} set-up samples; the tail is p{p} of {len(latencies)} successful operations",
            file=sys.stderr,
        )
        metrics = {
            "setup_s": {"value": statistics.median(setup.samples), "unit": "s"},
            "ops_per_s": {"value": len(latencies) / pass_s, "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "latency_tail_s": {"value": percentile(latencies, p), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
