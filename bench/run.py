"""modfold benchmark: one workload per run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; modfold is imported from ./src.  Workloads
(see workloads.py): sweep_single, sweep_tree, decode, design, or `all` to
run each in turn in a fresh interpreter.  The seed generates the
workload's inputs; modfold only ever sees those inputs.

--trace 0 measures the end-to-end metrics for S seconds:

  ops_per_s    operations per second: Monte Carlo trials on the sweeps,
               decoded readings on decode, analysed moduli sets on design
  op_p50_us    median latency of one operation; on the sweeps, of one
               trial as averaged over one batch (a sweep of every plan)
  cli_start_s  median wall time of `python -m modfold.cli bounds 70 75 80 90`
  setup_s      median time from a fresh interpreter's start to ready:
               imports, generated inputs and the first plan-building calls
  peak_rss_mb  peak resident memory of the run, in MiB

On decode and design op_p50_us is the median of one call each over a mix
of plans or moduli sets, so it sees only the plans whose calls lie around
the median: on decode, a change to the slowest plan (reconstruct_tree,
about three times a solve_folding call) leaves it unchanged.  ops_per_s
and the traced per-plan p50s (robust.solve_folding.*_p50_us,
multistage.reconstruct_tree.p50_us) cover the rest.

The run record also holds op_p99_us, the 99th percentile of the same
latency samples.  It is not a gated metric: its tail is mostly the host's
interference; under contention its quartile spread over ten runs reached
0.7 of its median.

--trace 1 runs a fixed amount of work twice, untraced and then with the
span recorder of spans.py installed, and reports the per-layer metrics,
whose counts repeat exactly for a given seed.  Every output is checked
against references that do not come from modfold (oracle.py, expected/);
any wrong output makes the run print correct=false and exit 1.  Each run
also writes a JSON record (machine, commit, src line count, raw figures,
sample counts) under .bench_results/.

Timings are in reference seconds.  On a shared host, other tenants move a
process's speed by up to +-30% over seconds, so every ~5 ms of work is
bracketed by a fixed calibration loop and its raw time is scaled by
CALIBRATION_REF_S / (mean calibration time around it).  Child processes
(cli_start_s, setup_s) are bracketed by bare `python -c pass` starts
instead and scaled by BARE_START_REF_S / (their mean): process creation
slows with the host differently from computation.  Both sides of a
comparison run the same references, so the ratio cancels the host's speed
and keeps modfold's.  Raw figures are kept in the run record.

The whole run is pinned to one CPU, children included, so a calibration
and the work it normalises share a core.  Load is one process with one
thread.

Extra flags: --smoke shrinks every workload for the benchmark's own tests;
--corrupt alters one checked result, which must turn into a failure.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import gc
import importlib.util
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

# calibration_loop's duration, and the wall time of `python -c pass`, on an
# unloaded core of the reference machine (Intel Xeon, 2 vCPUs, Python
# 3.11): what a reference second is made of
CALIBRATION_REF_S = 0.00110
BARE_START_REF_S = 0.045
SEGMENT_S = 0.005  # work between two calibrations
PROBES = 11  # of cli_start_s and of setup_s, per run
IMPORT_PROBES = 5
CLI_ARGV = ["bounds", "70", "75", "80", "90"]
CLI_EXPECTED = "theta: 5/2"
# batches of the fixed traced work, per workload (untraced and traced each)
TRACED_BATCHES = {"sweep_single": 20, "sweep_tree": 15, "decode": 16, "design": 64}

# what ops_per_s and the latencies count on each workload
ALIASES = {
    "sweep_single": {"ops_per_s": "trials_per_s"},
    "sweep_tree": {"ops_per_s": "trials_per_s"},
    "decode": {"ops_per_s": "decode_per_s", "op_p50_us": "decode_p50_us",
               "op_p99_us": "decode_p99_us"},
    "design": {"ops_per_s": "designs_per_s"},
}

_MASK64 = (1 << 64) - 1


def calibration_loop(n: int = 2000) -> int:
    """Fixed integer work in the style of modfold's hot path."""
    acc = []
    z = 12345
    g = 0
    for _ in range(n):
        z = (z + 0x9E3779B97F4A7C15) & _MASK64
        y = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        q, r = divmod(y, 1000003)
        g += math.gcd(q % 9973 + 1, 360)
        acc.append(r % 97)
    return g + len(acc)


def calibrate() -> float:
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


class Meter:
    """Work timed in segments, each bracketed by calibration loops.

    A segment's times are scaled by CALIBRATION_REF_S over the mean of the
    calibrations on either side of it.  Per-operation latency samples go to
    a preallocated reservoir of fixed size, so the benchmark's own memory
    does not grow with the speed of the program and peak_rss_mb sees only
    modfold's.
    """

    RESERVOIR = 1 << 16

    def __init__(self, segment_s: float = SEGMENT_S):
        self.segment_s = segment_s
        self.ops = 0
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.seen = 0
        self.kept = array("d", bytes(8 * self.RESERVOIR))
        self._rng = random.Random(0)
        self._seg_s = 0.0
        self._seg: list[float] = []
        self.restart()

    def restart(self) -> None:
        """Calibrate afresh, after time spent outside the meter."""
        self._last = calibrate()

    def record(self, seconds: float, ops: int = 1) -> None:
        """Account one timed piece of work of `ops` operations.

        Closes the segment once it holds segment_s of work, so segments
        stay short against the host's speed changes whatever the workload.
        """
        self.ops += ops
        self._seg_s += seconds
        self._seg.append(seconds / ops)
        if self._seg_s >= self.segment_s:
            self.split()

    def split(self) -> None:
        """Close the segment: calibrate and scale what it recorded."""
        now = calibrate()
        factor = CALIBRATION_REF_S / ((self._last + now) / 2)
        self._last = now
        self.raw_s += self._seg_s
        self.ref_s += self._seg_s * factor
        for x in self._seg:
            self._keep(x * factor)
        self._seg_s = 0.0
        self._seg.clear()

    def _keep(self, x: float) -> None:
        if self.seen < self.RESERVOIR:
            self.kept[self.seen] = x
        else:
            j = self._rng.randrange(self.seen + 1)
            if j < self.RESERVOIR:
                self.kept[j] = x
        self.seen += 1

    def samples(self) -> list[float]:
        return list(self.kept[: min(self.seen, self.RESERVOIR)])


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def bare_start() -> float:
    """Wall time of a bare interpreter's start and exit."""
    t0 = time.perf_counter()
    # no timeout: waiting with one polls in sleeps of up to 50 ms
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True)
    return time.perf_counter() - t0


class Probes:
    """Wall times of child processes, each between two bare interpreter
    starts, which follow the host's process-creation costs far more closely
    than a calibration loop does; times are scaled by BARE_START_REF_S over
    the mean of the two.
    """

    def __init__(self, argv: list[str], until_line: bool = False):
        self.argv = argv
        self.until_line = until_line  # time to the first line, not the exit
        self.raw: list[float] = []
        self.ref: list[float] = []
        self.outputs: list[tuple[int, str]] = []

    def run(self) -> None:
        before = bare_start()
        t0 = time.perf_counter()
        with subprocess.Popen(
            self.argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            first = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read()
            # the child closed its output, so it is exiting; a timeout here
            # would poll in sleeps of up to 50 ms and blur the measurement
            code = proc.wait()
        if not self.until_line:
            elapsed = time.perf_counter() - t0
        after = bare_start()
        self.raw.append(elapsed)
        self.ref.append(elapsed * BARE_START_REF_S / ((before + after) / 2))
        self.outputs.append((code, first + rest))


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
        "git_commit": commit,
        "src_lines": src_lines,
    }


def metric(value, unit, samples=None) -> dict:
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


# --------------------------------------------------------------------------
# untraced: end-to-end metrics


def measure(wl, args) -> tuple[dict, dict]:
    count = 1 if args.smoke else PROBES
    cli_probes = Probes([sys.executable, "-m", "modfold.cli", *CLI_ARGV])
    setup_probes = Probes(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", args.workload, "--seed", str(args.seed)]
        + (["--smoke"] if args.smoke else []),
        until_line=True,
    )
    # probes alternate, spread evenly over the measured window so that each
    # median spans the host's slow and fast spells
    due = [(cli_probes, setup_probes)[j % 2] for j in range(2 * count)]
    meter = Meter()
    start = time.perf_counter()
    probe_s = 0.0
    i = 0
    while True:
        worked = time.perf_counter() - start - probe_s
        if i > 0 and worked >= args.seconds:
            break
        wl.batch(i, meter)
        i += 1
        if due and worked >= args.seconds * (2 * count - len(due) + 0.5) / (2 * count):
            meter.split()
            t0 = time.perf_counter()
            due.pop(0).run()
            probe_s += time.perf_counter() - t0
            meter.restart()
    meter.split()
    for probes in due:
        probes.run()
    wl.verify()
    for code, text in cli_probes.outputs:
        wl.checks.record(code == 0 and CLI_EXPECTED in text, f"cli output {text!r}")
    for code, text in setup_probes.outputs:
        wl.checks.record(code == 0 and text.startswith("ready"), f"setup probe {text!r}")

    samples = meter.samples()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "ops_per_s": metric(meter.ops / meter.ref_s, "1/s"),
        "op_p50_us": metric(percentile(samples, 50) * 1e6, "us", len(samples)),
        "op_p99_us": metric(percentile(samples, 99) * 1e6, "us", len(samples)),
        "cli_start_s": metric(statistics.median(cli_probes.ref), "s", len(cli_probes.ref)),
        "setup_s": metric(statistics.median(setup_probes.ref), "s", len(setup_probes.ref)),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    raw = {
        "ops": meter.ops,
        "batches": i,
        "latency_samples_seen": meter.seen,
        "ops_per_s": meter.ops / meter.raw_s,
        "cli_start_s": statistics.median(cli_probes.raw),
        "setup_s": statistics.median(setup_probes.raw),
    }
    return metrics, raw


# --------------------------------------------------------------------------
# traced: per-layer metrics


def measure_traced(wl, args) -> tuple[dict, dict]:
    import modfold.multistage
    import modfold.robust
    from spans import BOUNDS_SPANS, Tracer

    # calibrate between batches only, never inside a span
    batches = 2 if args.smoke else TRACED_BATCHES[args.workload]
    plain = Meter(segment_s=math.inf)
    for i in range(batches):
        wl.batch(i, plain)
        plain.split()

    tracer = Tracer()
    tracer.install()
    traced = Meter(segment_s=math.inf)
    try:
        for i in range(batches, 2 * batches):
            wl.batch(i, traced, tracer)
            traced.split()
        if args.workload == "design":
            # the in-process half of what cli_start_s measures
            from workloads import run_cli

            for _ in range(PROBES):
                code, text = run_cli(CLI_ARGV)
                wl.checks.record(code == 0 and CLI_EXPECTED in text, f"cli {text!r}")
    finally:
        tracer.uninstall()
    # cache counts before verify(), whose reference runs build plans of
    # their own
    plan_cache = modfold.robust._folding_plan.cache_info()
    program_cache = modfold.multistage._tree_program.cache_info()
    expected = wl.expected_plan_misses()
    wl.checks.record(
        plan_cache.misses == expected,
        f"plan cache misses {plan_cache.misses}, expected {expected} distinct plans",
    )
    wl.verify()

    imports = Probes(
        [sys.executable, "-c",
         "import time; t = time.perf_counter(); import modfold; "
         "print(time.perf_counter() - t)"],
    )
    for _ in range(1 if args.smoke else IMPORT_PROBES):
        imports.run()
    import_s = [
        float(text) * ref / raw
        for (_, text), ref, raw in zip(imports.outputs, imports.ref, imports.raw)
    ]

    # span times are scaled by the traced pass's mean calibration factor
    f = traced.ref_s / traced.raw_s
    agg = tracer.summary()

    def get(name, key="calls"):
        return agg.get(name, {}).get(key, 0)

    def seconds(name, key):
        return get(name, key) * 1e-9 * f

    def p50_us(span_name, label):
        ns, count = tracer.label_p50_ns(span_name, label)
        return metric(ns * 1e-3 * f, "us", count)

    rng_calls, rng_ns = tracer.counters.get("simulate.rng", [0, 0])
    solve_calls = get("robust.solve")
    trials = tracer.tallies.get("simulate.trials", 0)
    searches = tracer.tallies.get("grouping.searches", 0)

    metrics = {
        "simulate.rng.draws": metric(rng_calls, "count"),
        "simulate.rng.self_s": metric(rng_ns * 1e-9 * f, "s"),
        "simulate.run_trials.self_s": metric(seconds("simulate.run_trials", "self_ns"), "s"),
        "simulate.estimated_share": metric(
            tracer.tallies.get("simulate.estimated", 0) / trials if trials else 0.0, "share"),
        "robust.solve.calls": metric(solve_calls, "count"),
        "robust.solve.self_s": metric(seconds("robust.solve", "self_ns"), "s"),
        "robust.solve.failures": metric(
            get("robust.solve", "failures") / solve_calls if solve_calls else 0.0, "share"),
        "robust.solve_folding.coprime_p50_us": p50_us("robust.solve_folding", "coprime"),
        "robust.solve_folding.merge_p50_us": p50_us("robust.solve_folding", "merge"),
        "robust.solve_folding.l7_p50_us": p50_us("robust.solve_folding", "l7"),
        "robust.plan_cache.hits": metric(plan_cache.hits, "count"),
        "robust.plan_cache.misses": metric(plan_cache.misses, "count"),
        "intmath.mod_inverse.calls": metric(tracer.counters.get("intmath.mod_inverse", [0])[0], "count"),
        "robust.bounds.s": metric(sum(seconds(n, "outer_ns") for n in BOUNDS_SPANS), "s"),
        "multistage.tree_run.calls": metric(get("multistage.tree_run"), "count"),
        "multistage.tree_run.self_s": metric(seconds("multistage.tree_run", "self_ns"), "s"),
        "multistage.reconstruct_tree.p50_us": p50_us("multistage.reconstruct_tree", "tree"),
        "multistage.stage_bounds.calls": metric(get("multistage.stage_bounds"), "count"),
        "multistage.stage_bounds.s": metric(seconds("multistage.stage_bounds", "total_ns"), "s"),
        "multistage.program_cache.misses": metric(program_cache.misses, "count"),
        "grouping.propose.calls": metric(get("grouping.propose"), "count"),
        "grouping.propose.self_s": metric(seconds("grouping.propose", "self_ns"), "s"),
        "grouping.covers": metric(tracer.tallies.get("grouping.covers", 0), "count"),
        "grouping.success_share": metric(
            tracer.tallies.get("grouping.successes", 0) / searches if searches else 0.0, "share"),
        "congruence.crt_general.calls": metric(get("congruence.crt_general"), "count"),
        "congruence.crt_general.s": metric(seconds("congruence.crt_general", "total_ns"), "s"),
        "cli.main.s": metric(seconds("cli.main", "self_ns"), "s"),
        "cli.import_s": metric(statistics.median(import_s), "s", len(import_s)),
        "trace.overhead_share": metric(traced.ref_s / plain.ref_s - 1, "share"),
    }
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"{args.workload}.spans.csv")
    raw = {
        "batches_per_pass": batches,
        "untraced_pass_s": plain.ref_s,
        "traced_pass_s": traced.ref_s,
        "spans": len(tracer.spans),
        "span_calls": {name: a["calls"] for name, a in sorted(agg.items())},
    }
    return metrics, raw


# --------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload, or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    p.add_argument("--corrupt", action="store_true",
                   help="alter one checked result: the run must fail")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_all(args, spec) -> int:
    """Every workload, each in a fresh interpreter, one after the other."""
    worst = 0
    for w in spec["workloads"]:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", w["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        argv += ["--smoke"] * args.smoke + ["--corrupt"] * args.corrupt
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        print(f"## {w['name']}: exit {proc.returncode}")
        sys.stdout.write(proc.stdout + proc.stderr)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "modfold" / "__init__.py").is_file():
        print(f"error: no modfold sources under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload == "all" and not args.probe_setup:
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not args.probe_setup:
        # children inherit the pin, so calibrations and probes share a core
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    sys.path.insert(0, str(SRC))
    import workloads

    checks = workloads.Checks(corrupt=args.corrupt)
    wl = workloads.make(args.workload, args.seed, checks, smoke=args.smoke)
    wl.setup()
    # collections need not rescan the generated inputs on every pass
    gc.freeze()
    if args.probe_setup:
        print("ready", flush=True)
        return 0
    own_setup_s = time.perf_counter() - PROCESS_START

    if args.trace:
        metrics, raw = measure_traced(wl, args)
        declared = spec["per_layer"]
    else:
        metrics, raw = measure(wl, args)
        declared = spec["end_to_end"]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        **machine_record(),
        "own_setup_s_raw": own_setup_s,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failed_share": checks.failed / checks.attempted,
        "failures": checks.messages,
        "metrics": metrics,
        "raw": raw,
        "workload_record": wl.record(),
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for key in ("cpu_model", "nproc", "python", "numpy_importable",
                "git_commit", "src_lines", "own_setup_s_raw"):
        print(f"# {key}: {record[key]}")
    print(f"# failed_share: {record['failed_share']} share "
          f"({checks.failed} of {checks.attempted} checked operations)")
    for msg in checks.messages:
        print(f"# FAILED: {msg}")
    aliases = ALIASES.get(args.workload, {}) if not args.trace else {}
    for name, m in metrics.items():
        alias = f" ({aliases[name]})" if name in aliases else ""
        extra = f" (samples={m['samples']})" if "samples" in m else ""
        print(f"# {name}{alias}: {m['value']} {m['unit']}{extra}")
    print(f"# record: {out.relative_to(ROOT)}")

    missing = [
        d["name"] for d in declared
        if d["name"] not in metrics or metrics[d["name"]]["unit"] != d["unit"]
    ]
    if missing:
        print(f"error: metrics not emitted with their declared unit: {missing}",
              file=sys.stderr)
        return 3
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            d["name"]: {"value": metrics[d["name"]]["value"], "unit": d["unit"]}
            for d in declared
        },
    }
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
