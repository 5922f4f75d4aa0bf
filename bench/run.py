"""Benchmark of channel-forge: runs one workload, checks every output, prints its metrics.

    python3 -m bench.run --workload WORKLOAD --seed N --seconds S --trace 0|1

Run it from the repository root: the package under test is imported from
``./src`` and nowhere else, so without the sources it exits with an error
and prints no result. Generated input files live in ``.bench_work/`` and are
removed at exit.

Each workload is a single-process closed loop: the next item starts when
the previous one has finished and been checked. BLAS, OpenMP and MKL are
pinned to one thread before numpy is imported (on this code one OpenBLAS
thread was measured faster than two). A run repeats whole rounds, one item
of each kind the workload mixes, and stops at the round boundary nearest to
``--seconds`` of timed phase (the sum of the item calls, checks excluded),
after at least one round.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs a fixed
number of rounds twice after one untimed warm-up item, plain and then with
every traced layer wrapped (see
``bench.spans``), and prints the per-layer metrics, the engine cost of one
element at 6 to 12 qubits, and the tracing overhead. The last line of
standard output is the JSON result; the line before it records the
environment.
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
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from bench.envinfo import THREAD_VARS

MAX_WALL_S = 150.0  # stop starting rounds after this, to exit well within 180 s
SETUP_PROBES = 2  # fresh processes that each time set-up once more
TRACE_ROUNDS = {"tailor-sweep": 1, "circuit-tailor": 2, "dense-sim": 1, "netsim-repeater": 8}
ELEMENT_REPEATS = {6: 20, 8: 10, 10: 3, 12: 1}  # qubits -> timed repetitions

FIGURE_CALLS = {
    "fig5a": lambda fig, p: fig.fig5a_rows([p["q"]], seed=p["seed"]),
    "fig5b": lambda fig, p: fig.fig5b_rows([p["s"]], seed=p["seed"]),
    "fig6a": lambda fig, p: fig.fig6a_rows([p["gamma"]]),
    "fig6b": lambda fig, p: fig.fig6b_rows([p["gamma"]], seed=p["seed"]),
}


def load_package(root: Path) -> None:
    """Import channel_forge from ``root/src``; ImportError if it is not there."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import channel_forge
    import channel_forge.cli  # noqa: F401  (imported here so set-up pays for it)
    import channel_forge.figures  # noqa: F401

    if Path(channel_forge.__file__).resolve().parent.parent != src:
        raise ImportError(f"channel_forge was found at {channel_forge.__file__}, not in {src}")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(prog="python3 -m bench.run",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for the setup_s samples)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_item(item, workdir: Path, tracer=None):
    """Call the program on one item; returns (output, error, wall s, cpu s).

    Only the call is timed: writing the input files happens before, reading
    the captured output after. A CLI item's output is (exit code, stdout).
    """
    from channel_forge import cli, figures

    argv = None
    if item.argv:
        paths = {}
        for name, data in item.files.items():
            path = workdir / name
            path.write_bytes(data)
            paths[name] = str(path)
        argv = [paths.get(arg, arg) for arg in item.argv]
    buf = io.StringIO()
    result, error = None, None
    with tracer if tracer is not None else contextlib.nullcontext():
        cpu0 = _cpu_s()
        start = time.perf_counter()
        try:
            if argv is None:
                result = FIGURE_CALLS[item.kind](figures, item.params)
            else:
                with contextlib.redirect_stdout(buf):
                    result = cli.main(argv)
        except Exception as exc:  # a raising item is counted as failed, the run goes on
            error = exc
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu0
    output = result if argv is None else (result, buf.getvalue())
    return output, error, wall, cpu


@dataclass
class Tally:
    kinds: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    cpu: list = field(default_factory=list)
    infidelities: list = field(default_factory=list)
    failed: int = 0
    output_bytes: int = 0  # stdout of CLI items (JSON is ASCII, so chars = bytes)
    maxrss_kb: list = field(default_factory=list)  # process peak RSS after each call

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def measure(items, workdir: Path, tally: Tally, tracer=None) -> None:
    """Run and check items in order, closed loop, adding to ``tally``."""
    from bench import checks

    for item in items:
        output, error, wall, cpu = run_item(item, workdir, tracer)
        tally.kinds.append(item.kind)
        tally.latencies.append(wall)
        tally.cpu.append(cpu)
        tally.maxrss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if item.argv:
            tally.output_bytes += len(output[1])
        if error is not None:
            print(f"item {item.kind} raised:", file=sys.stderr)
            traceback.print_exception(error, file=sys.stderr)
            tally.failed += 1
            continue
        try:
            tally.infidelities.append(checks.check(item, output))
        except Exception as exc:  # CheckFailed or a malformed output
            print(f"item {item.kind} failed its check: {exc!r}", file=sys.stderr)
            tally.failed += 1


def item_s_p50(tally: Tally) -> float:
    """Median latency of each item kind, combined over the kinds by their
    geometric mean; on a single-kind workload this is the plain median.

    A round mixes kinds whose costs differ several-fold, so the plain median
    of a few rounds is the latency of whichever kind lands in the middle and
    rests on one or two items.
    """
    by_kind = {}
    for kind, latency in zip(tally.kinds, tally.latencies):
        by_kind.setdefault(kind, []).append(latency)
    return statistics.geometric_mean([statistics.median(v) for v in by_kind.values()])


def setup_probe(workload: str, seed: int, root: Path) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        cwd=root, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def element_ms(qubits: int, repeats: int) -> float:
    """Median cost in ms of one engine element at ``qubits`` qubits: the mean
    of one Hadamard and one amplitude-damping channel on the middle wire."""
    from channel_forge.circuits import hadamard
    from channel_forge.engine import StateEngine
    from channel_forge.noise import amplitude_damping

    gate, channel = hadamard(), amplitude_damping(0.1)
    channel.kraus()
    engine = StateEngine()
    wire = engine.add_wires([2] * qubits)[qubits // 2]
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        engine.apply_unitary(gate, [wire])
        engine.apply_channel(channel, [wire])
        samples.append((time.perf_counter() - start) / 2 * 1e3)
    return statistics.median(samples)


def end_to_end(args, first_round, workdir: Path, setup_s: float, root: Path):
    from bench import inputs

    tally = Tally()
    started = time.perf_counter()
    measure(first_round, workdir, tally)
    rounds = 1
    # stop at the round boundary nearest to --seconds of timed calls
    while time.perf_counter() - started < MAX_WALL_S:
        timed = sum(tally.latencies)
        if timed + timed / rounds / 2 >= args.seconds:
            break
        measure(inputs.make_round(args.workload, args.seed, rounds), workdir, tally)
        rounds += 1
    # peak through set-up and the first round's calls: later rounds only add
    # allocator growth, which would tie the figure to the number of rounds
    peak_rss_mb = tally.maxrss_kb[len(first_round) - 1] / 1024
    setup_samples = [setup_s] + [setup_probe(args.workload, args.seed, root)
                                 for _ in range(SETUP_PROBES)]
    n = tally.attempted
    metrics = {
        "items_per_s": (n / sum(tally.latencies), "1/s"),
        "item_s_p50": (item_s_p50(tally), "s"),
        "cpu_s": (sum(tally.cpu) / n, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "infidelity_mean": (statistics.fmean(tally.infidelities) if tally.infidelities else 1.0,
                            "1"),
        "pass_ratio": ((n - tally.failed) / n, "ratio"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }
    notes = [f"item_s_p50 over n={n} items of {len(set(tally.kinds))} kinds in {rounds} rounds; "
             f"cpu_s is CPU seconds per item; setup_s is the median of {len(setup_samples)} set-ups"]
    return metrics, tally.attempted, tally.failed, notes


def traced(args, first_round, workdir: Path):
    from bench import inputs, spans

    rounds = [first_round] + [inputs.make_round(args.workload, args.seed, i)
                              for i in range(1, TRACE_ROUNDS[args.workload])]
    items = [item for round_items in rounds for item in round_items]
    # one untimed call first, so first-use costs in the process (allocator
    # growth, lazy imports) do not land on the plain pass only
    run_item(items[0], workdir)
    plain, wrapped = Tally(), Tally()
    measure(items, workdir, plain)
    tracer = spans.Tracer()
    measure(items, workdir, wrapped, tracer)
    missing = [name for name in spans.WORKLOAD_LAYERS[args.workload] if tracer.calls(name) == 0]
    if missing:
        raise RuntimeError(f"traced {args.workload} recorded no calls to {', '.join(missing)}")
    metrics = tracer.metrics()
    metrics["cli.output_bytes"] = (wrapped.output_bytes, "bytes")
    for qubits, repeats in ELEMENT_REPEATS.items():
        metrics[f"engine.element_ms.q{qubits}"] = (element_ms(qubits, repeats), "ms")
    metrics["trace.overhead_ratio"] = (sum(wrapped.latencies) / sum(plain.latencies), "ratio")
    notes = [f"{len(items)} items run plain, then traced"]
    return (metrics, plain.attempted + wrapped.attempted, plain.failed + wrapped.failed, notes)


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    setup_start = time.perf_counter()
    root = Path.cwd()
    try:
        load_package(root)
    except ImportError as exc:
        print(f"error: cannot import channel_forge from {root / 'src'}: {exc}", file=sys.stderr)
        return 2
    from bench import envinfo, inputs

    args = parse_args(argv, inputs.WORKLOADS)
    first_round = inputs.make_round(args.workload, args.seed, 0)
    setup_s = time.perf_counter() - setup_start
    if args.setup_only:
        print(repr(setup_s))
        return 0

    work_base = root / ".bench_work"
    work_base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_base))
    try:
        if args.trace:
            result = traced(args, first_round, workdir)
        else:
            result = end_to_end(args, first_round, workdir, setup_s, root)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_base.rmdir()
    metrics, attempted, failed, notes = result

    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:.6g} {unit}")
    for note in notes:
        print(f"# {note}")
    print(json.dumps({"environment": envinfo.environment(root)}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
