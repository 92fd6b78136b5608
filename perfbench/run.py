"""closure-lab benchmark: one workload, one closed-loop client, one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {suite,witness,certify} --seed N \
        --seconds S --trace {0,1}

The benchmark imports ``closure_lab`` from ``src/`` of the checkout it
sits in, builds the workload's items from the seed, and runs passes over
them until ``--seconds`` have been used (at least two untraced passes).
Before each pass the library's ``lru_cache``s are cleared, so every pass
starts as cold as a fresh interpreter; items within a pass share caches, as
sample-suite trials do. An item's latency is its median over the untraced
passes. Every answer is checked, and every pass must produce the same
per-item results.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics and the
tracing overhead. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
SPAN_DIR = ROOT / ".perfbench"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suite", "witness", "certify"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--items", type=int, default=None,
        help="build at most N items per pass (for tests and quick looks)",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def timed_setup(args):
    """Import the library from this checkout's src/ (never from elsewhere)
    and build the inputs. Returns (seconds, workloads module, items)."""
    if not (SRC / "closure_lab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no closure_lab package under {SRC}")
    start = perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import closure_lab
    import workloads

    build, _, count = workloads.WORKLOADS[args.workload]
    items = build(args.seed, count if args.items is None else min(args.items, count))
    elapsed = perf_counter() - start
    if Path(closure_lab.__file__).resolve().parent != SRC / "closure_lab":
        raise SystemExit(f"perfbench: imported closure_lab from {closure_lab.__file__}")
    return elapsed, workloads, items


def setup_probe(args) -> float:
    """Set-up time measured in a fresh interpreter, as a CLI user pays it."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--trace", "0", "--setup-only",
    ]
    if args.items is not None:
        command += ["--items", str(args.items)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Tally:
    """What the passes of one run produced."""

    def __init__(self):
        self.plain_s: list[float] = []
        self.traced_s: list[float] = []
        self.latencies: list[list[float]] = []  # per untraced pass, per item
        self.layers: list[dict] = []  # per traced pass
        self.digests: set[str] = set()
        self.parts: dict[str, list[float]] = {}
        self.failed_lines: list[str] = []
        self.attempted = self.failed = self.wrong = self.queries = self.unknown = 0

    def add_pass(self, outcomes, traced: bool) -> None:
        self.digests.add(hashlib.sha256("\n".join(o.line for o in outcomes).encode()).hexdigest())
        self.attempted += len(outcomes)
        for o in outcomes:
            self.failed += o.failed
            self.wrong += o.wrong
            self.queries += o.queries
            self.unknown += o.unknown
            if o.failed and o.line not in self.failed_lines:
                self.failed_lines.append(o.line)
            if not traced:
                for label, seconds in o.parts:
                    self.parts.setdefault(label, []).append(seconds)


def run_pass(workloads, run_item, items, tracer) -> tuple[float, list, list]:
    """One closed-loop pass: each item is sent when the previous one returned.
    Returns the pass time, the items' outcomes and their latencies."""
    from tracer import clear_caches

    clear_caches()
    gc.collect()
    if tracer is not None:
        tracer.begin_pass()
        tracer.install()
    outcomes = []
    latencies = []
    start = perf_counter()
    try:
        for item in items:
            item_start = perf_counter()
            try:
                outcome = run_item(item)
            except Exception as exc:  # a cap or a bug: count it and go on
                traceback.print_exc(file=sys.stderr)
                outcome = workloads.Outcome(f"raised {type(exc).__name__}: {exc}", failed=True)
            latencies.append(perf_counter() - item_start)
            outcomes.append(outcome)
    finally:
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    return elapsed, outcomes, latencies


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_s, workloads, items = timed_setup(args)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    from tracer import Tracer

    setups = [setup_s]
    if args.trace == 0:
        setups += [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]

    _, run_item, _ = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    tally = Tally()
    run_start = perf_counter()
    while True:
        traced = args.trace == 1 and len(tally.plain_s) > len(tally.traced_s)
        elapsed, outcomes, latencies = run_pass(
            workloads, run_item, items,
            tracer if traced else None,
        )
        if traced:
            tally.traced_s.append(elapsed)
            tally.layers.append(tracer.end_pass())
        else:
            tally.plain_s.append(elapsed)
            tally.latencies.append(latencies)
        tally.add_pass(outcomes, traced)
        # at least two untraced passes, so no item's figure rests on one
        # time; a traced run needs one untraced and one traced pass
        enough = tally.traced_s if args.trace else tally.plain_s[1:]
        if enough and perf_counter() - run_start + elapsed > args.seconds:
            break

    for line in tally.failed_lines:
        print(f"FAILED ITEM: {line}")
    deterministic = len(tally.digests) == 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **workloads.CAPS[args.workload],
        "items_per_pass": len(items),
        "untraced_pass_s": [round(t, 4) for t in tally.plain_s],
        "traced_pass_s": [round(t, 4) for t in tally.traced_s],
        "untraced_passes": len(tally.latencies),
        "results_digest": sorted(tally.digests)[0],
        "failed_share": tally.failed / tally.attempted,
        "unknown_share": tally.unknown / tally.queries,
    }
    if tally.parts:
        # certify: each kind's share of the items, and each query path's
        # mean time within it, so a change that helps one kind shows there
        kinds = [label.rsplit(".", 1)[0] for label in tally.parts]
        record["kind_share"] = {k: kinds.count(k) / len(kinds) for k in dict.fromkeys(kinds)}
        record["query_mean_s"] = {
            label: statistics.fmean(times) for label, times in tally.parts.items()
        }

    if args.trace == 0:
        # Each item's latency is its median over the untraced passes, which
        # all run the same items from cold caches, so a stall of the machine
        # during one of three passes moves no item's figure. (Per-item
        # minima spread more from run to run; see README.md.)
        per_item = [statistics.median(times) for times in zip(*tally.latencies)]
        metrics = {
            "wall_s": (sum(per_item), "s"),
            "item_p50_s": (statistics.median(per_item), "s"),
            # inclusive: with witness's two items the default method
            # would extrapolate past the slowest one
            "item_p90_s": (statistics.quantiles(per_item, n=10, method="inclusive")[8], "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        layers, counts_repeat = per_layer(tally.layers)
        deterministic = deterministic and counts_repeat
        layers["tracing.overhead_share"] = (
            statistics.median(tally.traced_s) / statistics.median(tally.plain_s) - 1
        )
        layers["unknown_share"] = tally.unknown / tally.queries
        metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}
        SPAN_DIR.mkdir(exist_ok=True)
        record["spans_written"] = tracer.write_spans(SPAN_DIR / f"spans-{args.workload}.tsv.gz")

    record["deterministic"] = deterministic
    print("run: " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.wrong == 0 and deterministic,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def per_layer(layer_passes):
    """Counts from the first traced pass (every traced pass must repeat them)
    and the median of each time over the traced passes."""
    metrics = {}
    repeat = True
    for name, value in layer_passes[0].items():
        values = [p[name] for p in layer_passes]
        if layer_unit(name) == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = value
            repeat = repeat and all(v == value for v in values)
    return metrics, repeat


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "yield")):
        return "share"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
