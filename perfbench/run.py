"""Outside-in benchmark of circleact's four layers.

    python3 perfbench/run.py --workload hilbert --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One process, one thread, closed loop: the next input goes in only after the
previous one has come back and been checked.  The package is imported from
`src/` next to this directory, never from an installed copy.

Untraced (`--trace 0`): set up (import, input generation, one warm-up
input; repeated and the median reported as setup_s), then run whole blocks
of inputs for 1/repeats of `--seconds` of wall time and the same blocks
repeats - 1 times more (repeats is set per workload in workloads.json); each
input's time is the fastest of its repeats.  Only the calls into circleact
are timed; the output checks run between them, off the clock.  specs_per_s
is checked inputs per second inside circleact.

Traced (`--trace 1`): run the seed's first block again and again, alternating
an untraced pass with a traced one, until `--seconds` have passed.  The
traced pass wraps the public functions of each layer and records spans in
memory; per-layer metrics are per pass, and the spans are written to
perfbench/out/ at the end.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}; the
line before it records the environment and, untraced, all six end-to-end
metrics including failed_frac.  `--workload all` runs each workload in a
fresh process and prints every workload's record.  The exit code is 0 only
if every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import Tracer, layer_metrics
from workloads import PARAMS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
LAYERS = ("action", "invariants", "stratification", "recovery", "numeric", "cli")
END_TO_END_UNITS = {
    "specs_per_s": "1/s",
    "spec_p50_ms": "ms",
    "spec_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_fresh() -> SimpleNamespace:
    """Import circleact from SRC anew, dropping any copy already loaded."""
    for key in [key for key in sys.modules if key.split(".")[0] == "circleact"]:
        del sys.modules[key]
    package = importlib.import_module("circleact")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"circleact was imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{name: importlib.import_module(f"circleact.{name}") for name in LAYERS})


def set_up(workload, seed):
    """Import, generate the first block and run one warm-up input, several
    times.  The warm-up input is the same for every seed (seed 0's first),
    so that set-up time does not vary with the seed."""
    warm_up = next(workload.blocks(0))[0]
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        api = import_fresh()
        blocks = workload.blocks(seed)
        first = next(blocks)
        workload.call(api, warm_up)
        times.append(perf_counter() - start)
    return statistics.median(times), api, first, blocks


class Tally:
    """Operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, item, problems):
        self.failed += 1
        if self.failed <= 5:
            print(f"check failed on {item!r}: {problems}", file=sys.stderr)


def run_block(workload, api, block, tally, counts, tracer=None) -> list[float | None]:
    """Call and check every input of a block; return the seconds each call
    spent in circleact, None for a call that raised.  A raised exception
    counts as a failed operation."""
    times = []
    for index, item in enumerate(block):
        tally.attempted += 1
        if tracer is not None:
            tracer.spec = index
        try:
            seconds, raw = workload.call(api, item)
        except Exception as exc:  # a crash is a result to count, not to stop on
            tally.fail(item, [f"{type(exc).__name__}: {exc}"])
            times.append(None)
            continue
        times.append(seconds)
        try:
            problems = workload.check(item, raw, counts)
        except Exception as exc:  # malformed output
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            tally.fail(item, problems)
    return times


def fastest(*times):
    """The least of the times, ignoring None (a call that raised)."""
    return min((t for t in times if t is not None), default=None)


def busy(times) -> float:
    return sum(t for t in times if t is not None)


def measure(workload, seed, seconds):
    """The untraced run: end-to-end metrics and the summary record.

    The first pass runs new blocks for 1/repeats of `--seconds`; the other
    passes run the same blocks again, in the same order, so that each input
    is timed `repeats` times, a pass apart.  An input's time is the fastest of
    its repeats: on a shared host a core can run at two thirds of its speed
    for tens of seconds at a time, and the fastest repeat is the one least
    slowed by work outside this process.  The median, the tail and the
    throughput (inputs per second of summed per-input times) are taken over
    all inputs of the run.
    """
    repeats = PARAMS[workload.name]["repeats"]
    setup_s, api, first, blocks = set_up(workload, seed)
    tally = Tally()
    outcomes = Counter()
    ran, best = [], []
    deadline = perf_counter() + seconds / repeats
    for block in itertools.chain([first], blocks):
        start = perf_counter()
        ran.append(block)
        best.append(run_block(workload, api, block, tally, outcomes))
        # Stop at the block boundary nearest the deadline: every pass runs
        # the whole first pass again, so an overrun would count `repeats` times.
        if perf_counter() + (perf_counter() - start) / 2 >= deadline:
            break
    for _ in range(repeats - 1):
        for index, block in enumerate(ran):
            times = run_block(workload, api, block, tally, Counter())
            best[index] = [fastest(*pair) for pair in zip(best[index], times)]
    samples = [t for times in best for t in times if t is not None]
    percentile = PARAMS[workload.name]["tail_percentile"]
    tail = statistics.quantiles(samples, n=1000)[round(percentile * 10) - 1]
    values = {
        "specs_per_s": len(samples) / sum(samples),
        "spec_p50_ms": statistics.median(samples) * 1e3,
        "spec_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    summary = {
        **metrics,
        "failed_frac": {"value": tally.failed / tally.attempted, "unit": "fraction"},
        "tail": {
            "percentile": percentile,
            "samples": len(samples),
            "beyond": sum(1 for s in samples if s > tail),
        },
        "blocks": len(ran),
        "repeats": repeats,
        "busy_s": sum(samples),
        "outcomes": dict(sorted(outcomes.items())),
    }
    return tally, metrics, summary


def measure_traced(workload, seed, seconds):
    """The traced run: per-layer metrics over passes of the first block."""
    _, api, first, _ = set_up(workload, seed)
    tally = Tally()
    untraced_counts = Counter()
    tracer = Tracer()
    traced_s = untraced_s = 0.0
    passes = 0
    deadline = perf_counter() + seconds
    while passes == 0 or perf_counter() < deadline:
        for traced in (False, True) if passes % 2 == 0 else (True, False):
            if traced:
                restore = tracer.install()
                try:
                    traced_s += busy(run_block(workload, api, first, tally, tracer.counts, tracer))
                finally:
                    restore()
            else:
                untraced_s += busy(run_block(workload, api, first, tally, untraced_counts))
        passes += 1
    metrics = layer_metrics(tracer, passes, traced_s, untraced_s)
    spans_path = OUT / f"{workload.name}-seed{seed}.spans.jsonl"
    tracer.write(spans_path)
    summary = {
        "passes": passes,
        "inputs_per_pass": len(first),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return tally, metrics, summary


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from .git; None without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    sources = hashlib.sha256()
    for path in sorted((SRC / "circleact").glob("*.py")):
        sources.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": git_commit(),
        "src_sha256": sources.hexdigest()[:16],
    }


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=args.seconds * 3 + 600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(lines[-2] if len(lines) >= 2 else json.dumps({"workload": name, "exit": proc.returncode}))
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "circleact" / "__init__.py").is_file():
        print(f"error: no circleact sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()
    run = measure_traced if args.trace else measure
    tally, metrics, summary = run(workload, args.seed, args.seconds)
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(args.seed),
        "summary": summary,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
