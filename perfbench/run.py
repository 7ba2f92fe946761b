"""Layered benchmark of the `tau` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: each invocation of a workload's grid runs
in its own fresh interpreter (perfbench/child.py), one after another.  The
seed only permutes the order within each pass.  Passes repeat until S
seconds have been measured (at least one full pass).  Every stdout is
checked against the sha256 and exit code pinned in expected.json, and
verify/monotone output must end in "PASS k/k".

The last stdout line is one JSON object:
    {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, taken
from untraced invocations, with times stated at a reference interpreter
speed (see NOTES.md); with --trace 1 they are its per_layer list,
from traced invocations interleaved with untraced ones (for the tracing
overhead).  A timing is the sum over the grid of each invocation's median,
i.e. the cost of one pass.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import CACHE, VERIFY_LIMITS, VERIFY_TOKENS, WORKLOADS, Invocation

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED = BENCH_DIR / "expected.json"
WORK_DIR = ".perfbench_work"

# One invocation may take at most this long; hitting it is a failure.
INVOCATION_TIMEOUT_S = 60.0
# Every invocation of a run ends within this budget, so the run exits well
# inside 180 s even when the program has regressed badly.
RUN_BUDGET_S = 150.0

# End-to-end times are stated at this interpreter speed, in runs per second
# of child.SpeedGauge's loop (see NOTES.md); raw times are per-layer metrics.
REFERENCE_SPEED = 16_000.0

PASS_LINE = re.compile(r"PASS (\d+)/(\d+)")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Sample:
    """The outcome of one invocation."""

    key: str
    traced: bool
    ok: bool
    reason: str
    main_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    setup_s: float = 0.0
    import_s: float = 0.0
    speed: float = REFERENCE_SPEED
    sha256: str = ""
    layers: dict = field(default_factory=dict)

    @property
    def scale(self) -> float:
        """Factor from this sample's seconds to seconds at REFERENCE_SPEED."""
        return self.speed / REFERENCE_SPEED


class Checkout:
    """The source tree under test and the benchmark's scratch directory."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.src = root / "src"
        if not (self.src / "taucalc" / "cli.py").is_file():
            raise FileNotFoundError(f"no taucalc sources under {self.src}")
        self.work = root / WORK_DIR
        self.work.mkdir(exist_ok=True)
        (self.work / "spans").mkdir(exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.copies = 0

    def source_digest(self) -> str:
        h = hashlib.sha256()
        for path in sorted((self.src / "taucalc").rglob("*.py")):
            h.update(str(path.relative_to(self.src)).encode() + b"\0")
            h.update(path.read_bytes())
        return h.hexdigest()[:16]

    def warm_up(self) -> None:
        """Compile the package's bytecode and pull it into the page cache."""
        subprocess.run([sys.executable, "-c", "import taucalc.cli"],
                       env=self.env, cwd=self.root, check=True, timeout=INVOCATION_TIMEOUT_S)

    def warm_cache(self) -> Path:
        """The bracket cache left by a cold run of the verify grid.

        Built once per source tree, outside any timed run, and kept in the
        scratch directory under the digest of the sources.
        """
        path = self.work / f"warm-{self.source_digest()}.taucache"
        if path.exists():
            return path
        partial = path.with_suffix(".partial")
        partial.unlink(missing_ok=True)
        for token in VERIFY_TOKENS:
            subprocess.run(
                [sys.executable, "-m", "taucalc", "verify", token, *VERIFY_LIMITS,
                 "--cache", str(partial)],
                env=self.env, cwd=self.root, check=True, timeout=INVOCATION_TIMEOUT_S,
                stdout=subprocess.DEVNULL,
            )
        partial.replace(path)
        return path

    def invoke(self, inv: Invocation, expected: dict | None, traced: bool,
               cache: Path | None, timeout: float, span_file: str = "spans") -> Sample:
        """Run one invocation in a fresh interpreter and check its output."""
        prep_start = now()
        argv = list(inv.argv)
        copy = None
        if inv.uses_cache:
            # a fresh name: truncating a file that was written back can
            # cost more than the copy itself on some file systems
            self.copies += 1
            copy = self.work / f"cache-{self.copies}.taucache"
            shutil.copyfile(cache, copy)
            argv[argv.index(CACHE)] = str(copy)
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        spans = str(self.work / "spans" / f"{span_file}.bin") if traced else "-"
        prep_s = now() - prep_start

        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(result_path), spans, "--", *argv]
        with open(self.work / "child.log", "wb") as log:
            spawned = now()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=log)
            usage, timed_out = _wait(proc, timeout)
        elapsed = now() - spawned
        if copy is not None:
            copy.unlink()
        cpu_s = usage.ru_utime + usage.ru_stime
        rss_mb = usage.ru_maxrss / 1024.0

        def failed(reason: str) -> Sample:
            return Sample(inv.key, traced, False, reason, elapsed, cpu_s, rss_mb)

        if timed_out:
            return failed(f"timeout after {timeout:.0f} s")
        code = proc.returncode
        if not result_path.exists():
            return failed(f"exit {code} without a result: {self.log_tail()}")
        res = json.loads(result_path.read_text())
        sample = Sample(
            inv.key, traced, True, "", res["main_s"], cpu_s - res["gauge_s"], rss_mb,
            setup_s=res["ready"] - spawned + prep_s, import_s=res["import_s"],
            sha256=res["sha256"], layers=res.get("layers", {}),
        )
        if res["speed"]:
            sample.speed = res["speed"]
        reason = ""
        if code != 0:
            reason = f"exit {code}: {self.log_tail()}"
        elif expected is not None and (code, res["sha256"]) != (expected["exit"], expected["sha256"]):
            reason = f"stdout sha256 {res['sha256'][:12]} != pinned {expected['sha256'][:12]}"
        elif inv.reports and not _all_passed(res["last_line"]):
            reason = f"no PASS k/k summary (last line {res['last_line'][:60]!r})"
        if reason:
            sample.ok, sample.reason = False, reason
        return sample

    def log_tail(self) -> str:
        lines = (self.work / "child.log").read_text(errors="replace").strip().splitlines()
        return lines[-1] if lines else "(no output)"


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap `proc` with its resource usage, killing it at the timeout."""
    deadline = now() + timeout
    timed_out = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage, timed_out
        if not timed_out and now() > deadline:
            proc.kill()  # still unreaped, so the pid cannot have been reused
            timed_out = True
        time.sleep(0.002)


def _all_passed(line: str) -> bool:
    m = PASS_LINE.fullmatch(line.strip())
    return bool(m) and m.group(1) == m.group(2)


def schedule(grid: tuple[Invocation, ...], traced: bool, rng: random.Random):
    """Endless passes over the grid, each in a fresh seeded order.

    A traced run interleaves a traced and an untraced copy of every
    invocation, so the tracing overhead is measured under the same load.
    """
    items = [(inv, mode) for inv in grid for mode in ((True, False) if traced else (False,))]
    while True:
        order = list(items)
        rng.shuffle(order)
        yield order


def measure(checkout: Checkout, workload: str, seed: int, seconds: float, traced: bool,
            expected: dict, started: float) -> list[Sample]:
    grid = WORKLOADS[workload]
    cache = checkout.warm_cache() if any(inv.uses_cache for inv in grid) else None
    checkout.warm_up()
    budget_end = started + RUN_BUDGET_S
    samples: list[Sample] = []
    last_cost: dict[tuple[str, bool], float] = {}
    t0 = now()
    for index, order in enumerate(schedule(grid, traced, random.Random(seed))):
        for inv, mode in order:
            projected = now() - t0 + last_cost.get((inv.key, mode), 0.0)
            if index and (projected > seconds or now() >= budget_end):
                return samples
            timeout = min(INVOCATION_TIMEOUT_S, budget_end - now())
            if timeout <= 0:
                # charged as a timeout, so a run cut short never reads fast
                samples.append(Sample(inv.key, mode, False, "run budget exhausted",
                                      INVOCATION_TIMEOUT_S, INVOCATION_TIMEOUT_S))
                continue
            begun = now()
            sample = checkout.invoke(inv, expected[inv.key], mode, cache, timeout,
                                     span_file=f"{workload}-{grid.index(inv)}")
            last_cost[(inv.key, mode)] = now() - begun
            samples.append(sample)
            status = "ok" if sample.ok else f"FAIL: {sample.reason}"
            print(f"[{workload}] {'traced ' if mode else ''}{inv.key}: "
                  f"{sample.main_s:.3f} s {status}", file=sys.stderr)
        if now() - t0 >= seconds:
            break
    return samples


def sum_of_medians(samples: list[Sample], value) -> float:
    """One pass's worth: the median of each invocation, summed over the grid."""
    groups: dict[str, list[float]] = {}
    for s in samples:
        groups.setdefault(s.key, []).append(value(s))
    return sum(statistics.median(v) for v in groups.values())


def end_to_end(samples: list[Sample]) -> dict[str, float]:
    return {
        "wall_s": sum_of_medians(samples, lambda s: s.main_s * s.scale),
        "cpu_s": sum_of_medians(samples, lambda s: s.cpu_s * s.scale),
        "setup_s": sum_of_medians(samples, lambda s: s.setup_s * s.scale),
        "peak_rss_mb": max(s.rss_mb for s in samples),
        "ok_ratio": sum(s.ok for s in samples) / len(samples),
    }


def per_layer(samples: list[Sample], grid_size: int) -> dict[str, float]:
    traced = [s for s in samples if s.traced and s.layers]
    plain = [s for s in samples if not s.traced]
    if not traced or not plain:
        return {}
    names = sorted({name for s in traced for name in s.layers})
    out = {name: sum_of_medians(traced, lambda s, n=name: s.layers.get(n, 0)) for name in names}
    lookups = out["brackets.memo_hits"] + out["brackets.memo_misses"]
    out["brackets.hit_ratio"] = out["brackets.memo_hits"] / lookups if lookups else 0.0
    out["cli.invocations"] = grid_size
    out["cli.import_s"] = sum_of_medians(traced, lambda s: s.import_s)
    out["cli.wall_raw_s"] = sum_of_medians(plain, lambda s: s.main_s)
    out["cli.cpu_raw_s"] = sum_of_medians(plain, lambda s: s.cpu_s)
    out["cli.setup_raw_s"] = sum_of_medians(plain, lambda s: s.setup_s)
    out["cli.speed"] = statistics.median(s.speed for s in plain)
    out["trace.overhead_s"] = out["cli.main_s"] - out["cli.wall_raw_s"]
    return out


def load_metric_units(root: Path, traced: bool) -> dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    started = now()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        checkout = Checkout(root)
        units = load_metric_units(root, bool(args.trace))
        expected = json.loads(EXPECTED.read_text())[args.workload]
        samples = measure(checkout, args.workload, args.seed, args.seconds, bool(args.trace),
                          expected, started)
    except (OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    grid = WORKLOADS[args.workload]
    if args.trace:
        values = per_layer(samples, len(grid))
    else:
        values = end_to_end([s for s in samples if not s.traced])
    failed = sum(not s.ok for s in samples)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        # a metric can only be missing when every sample of it failed
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
