"""grasscy benchmark: closed loop, one client, one operation in flight.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Every operation runs in a fresh
interpreter with PYTHONPATH=src, as every command-line call a user makes
does, and its printed output is checked exactly against the reference in
perfbench/reference/.  Each run first compiles src/ to bytecode, which an
installed package would have.  Operations then start back to back until
--seconds have passed.

--trace 0 prints the end-to-end metrics: wall_s, setup_s, peak_rss_mb and
pass_ratio; the two times are calibrated for machine speed (CAL_REF_S).
--trace 1 alternates untraced and traced operations and prints the
per-layer metrics from the traced ones (see perfbench/spans.py), plus
trace.overhead_ratio.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import py_compile
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import ops
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

WORKLOADS = ["verify_all", "crosscheck"]
SETUP_PROBES_PER_OP = 4
# Reported times are scaled by CAL_REF_S over the run's median calibration
# time (probe.py): on a shared virtual machine the speed drifts by up to
# 1.75x over minutes, and the scaling cancels much of that drift between
# runs.  CAL_REF_S is the kernel's usual time on the 2-vCPU machine the
# baseline was recorded on, so a calibrated time reads as seconds there.
CAL_REF_S = 0.05
RUN_CAP_S = 170.0  # no operation starts that could run a run past 180 s


class _Alarm(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Alarm


@dataclass
class Result:
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.problems


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(cmd: list[str], timeout: float) -> Result:
    """Run one child to completion; wall time from spawn to exit and the
    child's own peak resident set, from wait4."""
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        old = signal.signal(signal.SIGALRM, _on_alarm)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        res = None
        try:
            signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
            res = os.wait4(proc.pid, 0)
            signal.setitimer(signal.ITIMER_REAL, 0)
        except _Alarm:
            pass
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
        timed_out = res is None
        if timed_out:
            proc.kill()
            res = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        _, status, usage = res
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        result = Result(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                        out.read().decode(errors="replace"), err.read().decode(errors="replace"))
    if timed_out:
        result.problems.append(f"timed out after {timeout:.0f} s")
    return result


def op_cmd(workload: str, order: list[str], trace_file: Path | None = None) -> list[str]:
    """The command line of one operation."""
    if workload == "verify_all" and trace_file is None:
        return [sys.executable, "-m", "grasscy.cli", "verify-all"]
    cmd = [sys.executable, str(HERE / "ops.py"), "--workload", workload, "--order", ";".join(order)]
    return cmd + (["--trace", str(trace_file)] if trace_file else [])


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.rng = random.Random(seed)
        self.order = list(ops.ORDERS[workload])
        self.rng.shuffle(self.order)
        self.reference = check.load_reference(workload)
        self.t_start = time.perf_counter()
        self.attempted = 0
        self.failed = 0

    def remaining(self) -> float:
        return RUN_CAP_S - (time.perf_counter() - self.t_start)

    def record(self, result: Result, what: str) -> Result:
        self.attempted += 1
        if not result.ok:
            self.failed += 1
            tail = result.stderr.strip().splitlines()[-1:] or [""]
            print(f"FAIL {what}: exit {result.returncode}; {'; '.join(result.problems)} "
                  f"{tail[0]}", file=sys.stderr)
        return result

    def op(self, trace_file: Path | None = None) -> Result:
        result = spawn(op_cmd(self.workload, self.order, trace_file), self.remaining())
        if result.returncode == 0:
            result.problems += check.problems(self.workload, result.stdout, self.reference)
        return self.record(result, f"{self.workload} operation")

    def setup_probe(self) -> tuple[float, float] | None:
        """(set-up, calibration) seconds from one fresh interpreter."""
        result = spawn([sys.executable, str(HERE / "probe.py")], self.remaining())
        try:
            setup, calibration = map(float, result.stdout.split())
        except ValueError:
            result.problems.append("setup probe printed no times")
        self.record(result, "setup probe")
        return (setup, calibration) if result.ok else None

    def loop(self, step) -> None:
        """Call step() back to back until --seconds have passed (at least
        once), never starting one that the time cap could cut."""
        t0 = time.perf_counter()
        longest = 0.0
        while True:
            t = time.perf_counter()
            step()
            longest = max(longest, time.perf_counter() - t)
            if time.perf_counter() - t0 >= self.seconds or self.remaining() < 1.5 * longest:
                return

    def compile_sources(self) -> None:
        """Write the bytecode caches an installed package has, so that no
        timed operation pays for compiling a changed source file."""
        compileall.compile_dir(ROOT / "src", quiet=1,
                               invalidation_mode=py_compile.PycInvalidationMode.TIMESTAMP)

    def end_to_end(self) -> dict:
        self.compile_sources()
        probed: list[tuple[float, float]] = []
        timed: list[Result] = []

        def step():
            # probes between operations sample the same machine conditions
            probes = (self.setup_probe() for _ in range(SETUP_PROBES_PER_OP))
            probed.extend(p for p in probes if p is not None)
            timed.append(self.op())

        self.loop(step)
        walls = [r.wall_s for r in timed]
        wall = statistics.median(walls)
        setup = statistics.median(p[0] for p in probed) if probed else None
        calibration = statistics.median(p[1] for p in probed) if probed else None
        print(f"{self.workload}: {len(walls)} timed operations, raw wall_s "
              f"min {min(walls):.4f} median {wall:.4f} max {max(walls):.4f}; "
              f"{len(probed)} probes, raw setup_s median {setup}, calibration median "
              f"{calibration} (reference {CAL_REF_S})")

        def calibrated(seconds):  # None when every probe failed
            return None if calibration is None else seconds * CAL_REF_S / calibration

        return {
            "wall_s": {"value": calibrated(wall), "unit": "s"},
            "setup_s": {"value": calibrated(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r.rss_mb for r in timed), "unit": "MB"},
            "pass_ratio": {"value": (self.attempted - self.failed) / self.attempted,
                           "unit": "ratio"},
        }

    def per_layer(self) -> dict:
        self.compile_sources()
        trace_file = WORK / f"spans-{os.getpid()}.json"
        pairs, per_op = [], []
        missing: set[tuple[str, str]] = set()
        sides = [True, False] if self.rng.random() < 0.5 else [False, True]  # traced first?

        def pair():
            wall = {}
            for traced in sides:
                if not traced:
                    wall[traced] = self.op().wall_s
                    continue
                r = self.op(trace_file)
                wall[traced] = r.wall_s
                if r.ok:
                    with open(trace_file) as fh:
                        data = json.load(fh)
                    per_op.append(spans.op_metrics(data["spans"]))
                    missing.update(tuple(m) for m in data["missing"])
            pairs.append((wall[True], wall[False]))
            sides.reverse()

        self.loop(pair)
        trace_file.unlink(missing_ok=True)
        for point, name in sorted(missing):
            print(f"missing: {point} no longer exists; {name} metrics are null")
        print(f"{self.workload}: {len(per_op)} traced and {len(pairs)} untraced operations")
        return spans.run_metrics(per_op, {name for _, name in missing}, pairs)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "grasscy" / "__init__.py").is_file():
        print(f"perfbench: no grasscy sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds)
    metrics = bench.per_layer() if args.trace else bench.end_to_end()
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
