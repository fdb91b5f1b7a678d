"""indexlab benchmark: one seeded workload, one closed-loop client.

    python3 bench/run.py --workload iterate_sweep --seed 1 --seconds 20 --trace 0

Each op is one CLI invocation, `indexlab.cli.main(argv)`, made in this
process with stdout captured in memory; its inputs are JSON files generated
from the seed.  The next op starts when the previous one returns.

--trace 0  Set-up is repeated SETUP_REPEATS times (interpreter start and
           `import indexlab` in a child process, input generation, warm-up
           ops) and its median reported.  Then the timed loop runs the op
           list in whole passes: round(--seconds / PASS_S) of them, at least
           two, so every op runs equally often and every run has the same
           number of samples.  Prints the end-to-end metrics, with the
           timings scaled to a nominal host speed by a reference kernel
           timed through the run (see HostSpeed), and the unscaled values.
--trace 1  A seed-stable prefix of the op list, sized so that its three
           runs fit in about --seconds, runs untraced, then with the
           per-layer tracer installed, then traced again.  Prints the
           per-layer metrics of the first traced pass and trace.overhead_s.
           Both traced passes must give identical counts, equal to the
           counts the inputs imply.

Every output is checked against the oracle in oracle.py after timing
ends.  The last stdout line is a JSON object with the keys correct,
attempted, failed and metrics.  Read bench/README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from collections import Counter
from pathlib import Path

import gen  # bench/ is on sys.path as the script's directory
import oracle
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
WARMUP_OPS = {"iterate_sweep": 10, "morse_deep": 1, "prove_certify": 1}
MIN_PASSES = 2
# Nominal seconds of one untraced pass over the op list, and of the three
# runs per op of a traced pass, on the 2-vCPU machine the benchmark was sized
# on.  They fix the number of passes and the traced share for a --seconds
# value, so that these do not vary with the host's speed.
PASS_S = {"iterate_sweep": 3.0, "morse_deep": 20.0, "prove_certify": 6.4}
TRACED_PASS_S = {"iterate_sweep": 7.5, "morse_deep": 85.0, "prove_certify": 25.0}
TAIL_BEYOND = 10
# The speed of the shared host's vCPUs swings by up to 1.6x within minutes,
# for any code.  A fixed reference kernel is timed before and after each
# set-up and every CAL_EVERY_S through the timed loop; the timings of each
# phase are scaled to the nominal kernel time REF_S, its typical time on the
# sizing machine.
REF_S = 0.003
CAL_EVERY_S = 0.1


def import_indexlab():
    if not (SRC / "indexlab" / "__init__.py").is_file():
        sys.exit(f"error: no indexlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import indexlab.cli

    if Path(indexlab.__file__).resolve().parent != SRC / "indexlab":
        sys.exit(f"error: imported indexlab from {indexlab.__file__}, not {SRC}")
    return indexlab.cli


def run_op(main, argv: list[str]) -> tuple[float, object, str]:
    """(seconds, exit code or the exception raised, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception as exc:  # a failed op is counted, the run goes on
            rc = exc
    return time.perf_counter() - start, rc, out.getvalue()


def reference_kernel() -> int:
    """Fixed integer work in the style of the program (big-int square roots,
    products and floor divisions), independent of indexlab."""
    acc = 0
    for m in range(1, 2000):
        x = math.isqrt(2 * m * m * 10**40)
        acc += (x * x // (m + 7)) % 1000003
    return acc


class HostSpeed:
    """Samples of the reference kernel's time, taken through a run."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = -math.inf
        reference_kernel()  # the first call in a process runs cold

    def sample(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def tick(self) -> float:
        """Sample if CAL_EVERY_S passed since the last sample; returns the
        seconds spent sampling."""
        if time.perf_counter() - self.last < CAL_EVERY_S:
            return 0.0
        self.sample()
        return self.samples[-1]

    def slowdown(self) -> float:
        """Mean kernel time over the nominal: 1.25 means 25% slower."""
        return statistics.fmean(self.samples) / REF_S


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The sample at the highest percentile that leaves `beyond` samples
    above it, and that percentile as a share."""
    if len(samples) <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {len(samples)}")
    return sorted(samples)[-beyond - 1], (len(samples) - beyond) / len(samples)


def passes(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_S[workload]))


def traced_ops(ops: list, workload: str, seconds: float) -> list:
    """The prefix of the (seeded, shuffled) op list a traced run covers."""
    share = min(1.0, seconds / TRACED_PASS_S[workload])
    return ops[:max(1, math.ceil(share * len(ops)))]


class Recorder:
    """Results of the ops of a run, kept compact: the first stdout of each op
    is held zlib-compressed until the oracle reads it, later ones only as a
    digest, which must match the first."""

    def __init__(self):
        self.latency: dict[str, list[float]] = {}
        self.first: dict[str, tuple[object, bytes, str]] = {}
        self.differing: Counter = Counter()
        self.stdout_bytes: dict[str, int] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def add(self, op, seconds: float, rc, stdout: str) -> None:
        self.attempted += 1
        self.latency.setdefault(op.name, []).append(seconds)
        data = stdout.encode()
        digest = hashlib.sha256(data).hexdigest()
        if op.name not in self.first:
            self.first[op.name] = (rc, zlib.compress(data, 1), digest)
            self.stdout_bytes[op.name] = len(data)
        elif (rc, digest) != (self.first[op.name][0], self.first[op.name][2]):
            self.differing[op.name] += 1

    def verify(self, ops) -> Counter:
        """Oracle-check the first output of each op and count failed runs:
        every run of an op whose first output is wrong, and each later run
        whose output differs from the first.  Returns the layer counts the
        inputs imply."""
        implied = Counter()
        for op in ops:
            rc, blob, _ = self.first[op.name]
            if isinstance(rc, Exception):
                problems = [f"raised {rc!r}"]
            else:
                problems, counts = oracle.check(op, rc, zlib.decompress(blob).decode())
                implied.update(counts)
            differing = self.differing[op.name]
            self.failed += len(self.latency[op.name]) if problems else differing
            if differing:
                problems.append(f"{differing} runs differ from the first")
            self.problems += [f"{op.name} {op.command} {op.param}: {p}" for p in problems]
        return implied


def generate(workload: str, seed: int) -> tuple[list, str]:
    """The op list and a digest of all its input documents."""
    ops = gen.make_ops(workload, seed)
    digest = hashlib.sha256()
    for op in ops:
        digest.update(op.document() or op.argv("")[-1].encode())
    return ops, digest.hexdigest()


def write_inputs(workload: str, seed: int, workdir: Path) -> tuple[list, str, float]:
    """Generate the inputs and write them, once per run: file creation
    swings tenfold on a shared disk and no change to indexlab can move it,
    so it stays out of setup_s and is printed on its own."""
    start = time.perf_counter()
    ops, digest = generate(workload, seed)
    workdir.mkdir(parents=True)
    gen.write_inputs(ops, str(workdir))
    return ops, digest, time.perf_counter() - start


def setup_once(workload: str, seed: int, workdir: Path, cli) -> tuple[float, str]:
    """Interpreter start + import in a child, input generation, warm-up on
    the inputs written before."""
    start = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import indexlab.cli"], env=env, cwd=ROOT, check=True)
    ops, digest = generate(workload, seed)
    for op in gen.warmup_ops(ops, WARMUP_OPS[workload]):
        run_op(cli.main, op.argv(str(workdir)))
    return time.perf_counter() - start, digest


def run_traced_op(cli, op, op_id: int, workdir: str, rec: Recorder, tracer: Tracer) -> float:
    """One op with the tracer installed around it alone; returns its time."""
    tracer.install()
    tracer.begin_op(op_id)
    try:
        seconds, rc, stdout = run_op(cli.main, op.argv(workdir))
    finally:
        tracer.end_op()
        tracer.uninstall()
    rec.add(op, seconds, rc, stdout)
    return seconds


def end_to_end(args, cli, workdir: Path) -> tuple[Recorder, dict, list[str]]:
    ops, digest, write_s = write_inputs(args.workload, args.seed, workdir)
    rec, setups, setup_speed, speed = Recorder(), [], HostSpeed(), HostSpeed()
    for _ in range(SETUP_REPEATS):
        setup_speed.sample()
        seconds, again = setup_once(args.workload, args.seed, workdir, cli)
        setup_speed.sample()
        setups.append(seconds)
        if again != digest:
            rec.problems.append("generated inputs differ between set-ups of one seed")

    # whole passes over the op list, so every op runs equally often
    count = passes(args.workload, args.seconds)
    speed.sample()
    start, sampling = time.perf_counter(), 0.0
    for _ in range(count):
        for op in ops:
            seconds, rc, stdout = run_op(cli.main, op.argv(str(workdir)))
            rec.add(op, seconds, rc, stdout)
            sampling += speed.tick()
    loop_s = time.perf_counter() - start - sampling
    speed.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rec.verify(ops)

    runs = [x for v in rec.latency.values() for x in v]
    tail_s, share = tail(runs)
    raw = {
        "ops_per_s": ((rec.attempted - rec.failed) / loop_s, "1/s"),
        "op_p50_ms": (statistics.median(runs) * 1000, "ms"),
        "op_tail_ms": (tail_s * 1000, "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }
    slow, setup_slow = speed.slowdown(), setup_speed.slowdown()
    metrics = {
        "ops_per_s": (raw["ops_per_s"][0] * slow, "1/s"),
        "op_p50_ms": (raw["op_p50_ms"][0] / slow, "ms"),
        "op_tail_ms": (raw["op_tail_ms"][0] / slow, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "output_bytes": (statistics.fmean(rec.stdout_bytes.values()), "B"),
        "setup_s": (raw["setup_s"][0] / setup_slow, "s"),
    }
    notes = [
        f"timed loop: {count} passes over {len(ops)} ops, {len(runs)} runs in {loop_s:.2f} s",
        f"op_tail_ms is the p{100 * share:.1f} of {len(runs)} runs, "
        f"{TAIL_BEYOND} runs beyond it",
        f"setup_s is the median of {', '.join(f'{s:.4f}' for s in setups)}",
        f"inputs written once in {write_s:.4f} s, outside setup_s",
        f"host slowdown {slow:.4f} in the loop, {setup_slow:.4f} in set-up: the reference "
        f"kernel took {1000 * REF_S * slow:.4f} and {1000 * REF_S * setup_slow:.4f} ms on "
        f"average over {len(speed.samples)} and {len(setup_speed.samples)} samples, "
        f"against {1000 * REF_S:g} ms nominal; the timings are scaled by it",
        "unscaled: " + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in raw.items()),
        f"failed_ratio {rec.failed / rec.attempted:g} ({rec.failed} / {rec.attempted} runs)",
    ]
    return rec, metrics, notes


def traced(args, cli, workdir: Path) -> tuple[Recorder, dict, list[str]]:
    ops, _, _ = write_inputs(args.workload, args.seed, workdir)
    setup_once(args.workload, args.seed, workdir, cli)
    ops = traced_ops(ops, args.workload, args.seconds)
    rec = Recorder()
    tracer, second = Tracer(), Tracer()
    untraced_s = traced_s = 0.0
    # each op runs untraced and then traced, so that both runs see the same
    # warm state; then a second traced pass must repeat the counts
    for i, op in enumerate(ops):
        seconds, rc, stdout = run_op(cli.main, op.argv(str(workdir)))
        untraced_s += seconds
        rec.add(op, seconds, rc, stdout)
        traced_s += run_traced_op(cli, op, i, str(workdir), rec, tracer)
    for i, op in enumerate(ops):
        run_traced_op(cli, op, i, str(workdir), rec, second)
    implied = rec.verify(ops)

    counts = tracer.layer_counts()
    if counts != second.layer_counts():
        rec.problems.append(f"traced counts differ between two passes: "
                            f"{counts} != {second.layer_counts()}")
    for name, want in sorted(implied.items()):
        if counts.get(name) != want:
            rec.problems.append(f"{name}: traced {counts.get(name)}, inputs imply {want}")

    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    spans_path = BENCH / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
    spans_path.parent.mkdir(exist_ok=True)
    with open(spans_path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span._asdict()) + "\n")
    floors = metrics["exact.floor_scaled.calls"][0]
    notes = [
        f"exact.alloc_per_floor = {metrics['exact.ExactReal.constructed'][0]} constructed "
        f"/ {floors} floor calls",
        f"traced {traced_s:.4f} s, untraced {untraced_s:.4f} s, over the first {len(ops)} ops",
        f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}",
        f"failed_ratio {rec.failed / rec.attempted:g} ({rec.failed} / {rec.attempted} runs)",
    ]
    return rec, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_indexlab()
    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = traced if args.trace else end_to_end
        rec, metrics, notes = run(args, cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:>16.6g} {unit}")
    for line in notes:
        print(f"# {line}")
    for line in rec.problems[:20]:
        print(f"# FAILED {line}")
    print(json.dumps({
        "correct": not rec.problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
