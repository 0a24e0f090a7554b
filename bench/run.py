"""semidyn benchmark: a closed loop with one client calling `semidyn.cli.main`
in-process, one CLI invocation per operation, every output gated.

    python3 bench/run.py --workload normal-form --seed 1 --seconds 30 --trace 0

With `--trace 0` the last line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced pass (see
README.md).  The line before it records the run: CPUs, workers, versions,
failures by type and word length, and in a traced run its self-checks.
"""

import time

T0 = time.perf_counter()  # set-up is timed from the interpreter's first statement

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# set-up runs in this process, then in fresh interpreters: at least
# MIN_PROBES of them, more while probing has taken under PROBE_SECONDS, and
# at most MAX_PROBES, so cheap set-ups get more samples
MIN_PROBES, MAX_PROBES, PROBE_SECONDS = 1, 8, 6.0

# The speed of a small shared VM drifts: on the 2-vCPU VM where the
# benchmark was defined, the same operations ran up to a third slower for
# seconds to minutes at a time (a busy sibling hyperthread), and the raw
# median operation time of 10-run sets spread by 0.08-0.48 (IQR over
# median).  So a fixed reference kernel, which does not touch semidyn, is
# timed between operations, and every reported time is a wall time scaled
# to the reference speed: wall * REF_S / (kernel time measured around it).
# Scaled, the same sets spread by 0.05-0.11.  REF_S is about the kernel's
# time on that VM, so the scaled values read as seconds there.
REF_S = 0.002
# preallocated so the kernel allocates nothing: 64 elements for per-call
# overhead, 2 MiB (past L2) for memory traffic
_REF_SMALL = np.linspace(0, 1, 64) + 0j
_REF_SMALL_OUT = np.zeros_like(_REF_SMALL)
_REF_BIG = np.ones(1 << 17, dtype=np.complex128)
_REF_BIG_OUT = np.zeros_like(_REF_BIG)


def reference_seconds() -> float:
    """Wall time of a fixed mix of interpreter work, small numpy calls and
    memory traffic, like the operations' own mix."""
    t = time.perf_counter()
    acc = 0
    for i in range(8000):
        acc += i * i % 7
    for _ in range(150):
        np.cos(_REF_SMALL, out=_REF_SMALL_OUT)
    for _ in range(2):
        np.multiply(_REF_BIG, 1.0000001, out=_REF_BIG_OUT)
    return time.perf_counter() - t


def reference_around(refs: list[float], i: int, k: int = 4) -> float:
    """Median kernel time of the samples around operation i (refs[i] was
    taken just before it, refs[i + 1] just after)."""
    return statistics.median(refs[max(0, i - k + 1):i + k + 1])


def scaled(wall: float, ref: float) -> float:
    return wall * REF_S / ref


def load_cli():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    # the workloads pin their worker counts; the cap would override them
    os.environ.pop("SEMIDYN_THREADS", None)
    try:
        import semidyn.cli
    except ImportError as exc:
        sys.exit(f"cannot import semidyn from {src}: {exc}")
    if not Path(semidyn.cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"semidyn was imported from {semidyn.cli.__file__}, not {src}")
    return semidyn.cli


@dataclass
class Result:
    op: workloads.Op
    seconds: float
    failure: str | None  # exception type, "exit<code>" or "GateMismatch"
    digest: str | None  # of the gated outputs, when the operation succeeded


def execute(cli, wl, op, out_dir: Path, tracer=None, op_id: int = -1) -> Result:
    for path in wl.outputs(out_dir):
        path.unlink(missing_ok=True)
    argv = [*op.argv, "--out", str(out_dir)]
    sink = io.StringIO()
    if tracer is not None:
        tracer.op_id = op_id
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
        failure = None if rc == 0 else f"exit{rc}"
    except Exception as exc:  # the CLI promises exit codes; count whatever escapes
        failure = type(exc).__name__
    seconds = time.perf_counter() - t
    if tracer is not None:
        tracer.op_id = -1
    digest = None
    if failure is None:
        try:
            wl.check(op, out_dir)
            digest = workloads.digest(wl.outputs(out_dir))
        except workloads.GateMismatch as exc:
            print(f"gate: {' '.join(op.argv)}: {exc}", file=sys.stderr)
            failure = "GateMismatch"
    return Result(op, seconds, failure, digest)


def closed_loop(cli, wl, ops, seconds: float, out_dir: Path) -> tuple[list[Result], list[float]]:
    """Whole blocks of operations until `seconds` have passed, with the
    reference kernel timed before the first operation and after each."""
    results: list[Result] = []
    refs = [reference_seconds()]
    t0 = time.perf_counter()
    while not results or time.perf_counter() - t0 < seconds:
        for _ in range(wl.block):
            results.append(execute(cli, wl, next(ops), out_dir))
            refs.append(reference_seconds())
    return results, refs


def scaled_times(results: list[Result], refs: list[float]) -> list[float]:
    return [scaled(r.seconds, reference_around(refs, i)) for i, r in enumerate(results)]


def quantile(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate: a beta-weighted mean of all order statistics.
    normal-form mixes 64 word classes, so its times have gaps between
    clusters, and the sample median jumps across a gap from run to run."""
    # imported here, after the measurement, so that it adds nothing to set-up
    # time or peak RSS if semidyn stops importing scipy
    from scipy.special import betainc

    x = np.sort(xs)
    n = len(x)
    w = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(w @ x)


def failures(results: list[Result]) -> dict:
    """Failed operations by failure type, fixture and word length."""
    out: dict = {}
    for r in sorted(results, key=lambda r: len(r.op.word)):
        if r.failure is not None:
            by_len = out.setdefault(r.failure, {}).setdefault(r.op.fixture, {})
            key = str(len(r.op.word))
            by_len[key] = by_len.get(key, 0) + 1
    return out


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def setup_probe(args) -> float:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def setup_samples(args, first: float) -> list[float]:
    samples = [first]
    t0 = time.perf_counter()
    while len(samples) <= MIN_PROBES or (
        len(samples) <= MAX_PROBES and time.perf_counter() - t0 < PROBE_SECONDS
    ):
        samples.append(setup_probe(args))
    return samples


def untraced(cli, wl, ops, args, out_dir: Path, setup_s: float) -> tuple[dict, list, dict]:
    results, refs = closed_loop(cli, wl, ops, args.seconds, out_dir)
    rss = peak_rss_mb()  # before the probes, whose interpreters would count as children
    setups = setup_samples(args, setup_s)
    times = scaled_times(results, refs)
    ok = sum(r.failure is None for r in results)
    metrics = {
        "op_p50_s": (quantile(times, 0.5), "s"),
        "op_p90_s": (quantile(times, 0.9), "s"),
        "ops_per_s": (ok / sum(times), "1/s"),
        "ok_share": (ok / len(results), "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    extra = {
        "setup_samples_s": setups,
        "wall_op_p50_s": statistics.median(r.seconds for r in results),
        "reference_p50_s": statistics.median(refs),
    }
    return metrics, results, extra


def traced(cli, wl, ops, args, out_dir: Path) -> tuple[dict, list, dict]:
    """An untraced pass, the same operations traced, then the first operation
    traced once more.  The traced pass must give the untraced outputs, the
    repeat must give the same exact counts, and no wrapper may remain."""
    plain, plain_refs = closed_loop(cli, wl, ops, args.seconds / 2, out_dir)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results, refs = [], [reference_seconds()]
        for i, r in enumerate(plain):
            results.append(execute(cli, wl, r.op, out_dir, tracer, i))
            refs.append(reference_seconds())
        execute(cli, wl, plain[0].op, out_dir, tracer, len(plain))
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(spans_path)
    leftovers = tracing.leftover_wrappers()
    checks = {
        "outputs_match_untraced": [(r.failure, r.digest) for r in results]
        == [(r.failure, r.digest) for r in plain],
        "exact_counts_repeat": tracing.op_counts(spans, 0)
        == tracing.op_counts(spans, len(plain)),
        "wrappers_removed": not leftovers,
    }
    metrics = tracing.layer_metrics(spans, len(plain))
    overhead = quantile(scaled_times(results, refs), 0.5) - quantile(
        scaled_times(plain, plain_refs), 0.5
    )
    metrics["trace.overhead_s"] = (overhead, "s")
    extra = {
        "checks": checks,
        "leftover_wrappers": leftovers,
        "op0_counts": tracing.op_counts(spans, 0),
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return metrics, results, extra


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(args, wl) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpus": len(os.sched_getaffinity(0)),
        "workers": wl.workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args()

    cli = load_cli()
    wl = workloads.build(args.workload)
    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        ops = wl.ops(args.seed)
        warm = execute(cli, wl, wl.warmup(), out_dir)
        setup_s = scaled(
            time.perf_counter() - T0, statistics.median(reference_seconds() for _ in range(5))
        )
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if warm.failure is not None:
            print(f"warm-up failed: {warm.failure}", file=sys.stderr)
        if args.trace:
            metrics, results, extra = traced(cli, wl, ops, args, out_dir)
        else:
            metrics, results, extra = untraced(cli, wl, ops, args, out_dir, setup_s)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = len(results)
    failed = sum(r.failure is not None for r in results)
    mismatched = sum(r.failure == "GateMismatch" for r in results)
    record = {
        **run_metadata(args, wl),
        "attempted": attempted,
        "fail_share": failed / attempted,
        "failures": failures(results),
        **extra,
    }
    print(json.dumps(record))
    correct = mismatched == 0 and all(extra.get("checks", {}).values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
