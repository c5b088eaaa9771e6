"""wavetime benchmark: seeded sweep workloads run as a user runs them.

Run from the root of a wavetime checkout (the sources are imported from
./src, nothing is installed):

    python3 perfbench/run.py --workload stack_transmission --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all                 # every workload, one table
    python3 perfbench/run.py --workload lattice_detection --trace 1
    python3 perfbench/run.py --workload all --write-reference --reference DIR

One process runs the workload in a closed loop with one client: sweeps run
back to back, one warm-up pass and then timed passes until --seconds have
passed.  The benchmark sets no wavetime knob (WAVETIME_WORKERS, BLAS threads);
it records them.  Every value cell of every pass is checked against the
reference tables in perfbench/reference (or --reference DIR).

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `attempted` counts value cells
over all passes and `failed` those that disagree with the reference: a value
outside tolerance, or a cell that lost its value.  failed_frac, printed on its
own line, also counts the reason-coded cells the reference shares.
Scratch files, the spans of traced runs and a JSON record of every run go to
.perfbench/ under the current directory.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The keys of workloads.WORKLOADS, named here so argument parsing needs no ./src.
WORKLOAD_NAMES = ("stack_transmission", "barrier_reflection", "lattice_detection", "pulse_dispersion")
MIN_PASSES = 3  # timed passes, at least, after the warm-up
TRACED_PASSES = 2
SETUP_SAMPLES = 7

# Runs in a fresh interpreter: wavetime import plus scenario parsing.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import wavetime.cli
wavetime.cli.load_scenario(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", default=os.path.join(HERE, "reference"),
                   help="directory of reference tables (default: the committed ones)")
    p.add_argument("--write-reference", action="store_true",
                   help="compute the reference tables with this checkout's code into --reference")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def _openblas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS library loaded in this process."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return out
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def _git_sha(root: str) -> str:
    """HEAD of the checkout, read from .git without leaving the directory."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: str) -> dict:
    import numpy
    import scipy
    from wavetime import cli

    workers = cli._workers() if hasattr(cli, "_workers") else None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "wavetime_workers_env": os.environ.get("WAVETIME_WORKERS"),
        "effective_workers": workers,
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "openblas_threads": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_sha": _git_sha(root),
    }


# ---------------------------------------------------------------------------
# measurement


def measure_setup(src: str, scenario_path: str) -> list[float]:
    """Seconds from before `import wavetime.cli` until load_scenario returns,
    each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, src, scenario_path],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end(run, args, root: str) -> tuple[dict, dict, dict]:
    """sweep_s, setup_s and peak_rss_mb, with tracing off."""
    setup = measure_setup(os.path.join(root, "src"), run.parts[0].scenario_path)
    run.load()
    run.one_pass()  # warm-up: caches fill and lazy set-up finishes
    times = run.timed_passes(args.seconds, MIN_PASSES)
    metrics = {
        "sweep_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"sweep_s": f"median of {len(times)} passes",
             "setup_s": f"median of {len(setup)} fresh processes"}
    return metrics, notes, {"pass_s": times, "setup_s": setup}


def per_layer(run, args, root: str) -> tuple[dict, dict, dict]:
    """Per-layer metrics from TRACED_PASSES traced passes, after untraced
    passes that give the baseline for trace.overhead_frac."""
    import tracing
    import workloads

    run.load()
    run.one_pass()  # warm-up
    plain = run.timed_passes(args.seconds / 2, 2)
    tracer = tracing.Tracer()
    tracer.install()
    traced = []
    try:
        for _ in range(TRACED_PASSES):
            run.load()
            traced.append(run.one_pass())
    finally:
        tracer.uninstall()
    layer = tracing.layer_metrics(tracer.spans, TRACED_PASSES, run.rows)
    layer["cli.output_bytes"] = sum(p.output_bytes() for p in run.parts)
    layer["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    if run.workload.clocks is not None:
        profile, channel = run.workload.clocks
        layer.update(workloads.clock_seconds(profile, channel, run.parts[0].grid))
    else:
        layer.update(dict.fromkeys(workloads.CLOCK_METRICS, 0.0))
    spans_dir = os.path.join(root, ".perfbench", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.csv.gz")
    tracer.write(spans_path)
    metrics = {name: (layer[name], unit) for name, unit in tracing.LAYER_METRICS}
    notes = {"trace.overhead_frac": f"{TRACED_PASSES} traced vs {len(plain)} untraced passes"}
    return metrics, notes, {"untraced_pass_s": plain, "traced_pass_s": traced, "spans": spans_path}


def run_workload(args, root: str) -> dict:
    import workloads

    workdir = os.path.join(root, ".perfbench", f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = workloads.Run(workloads.WORKLOADS[args.workload], workdir, args.seed, args.reference)
        measure = end_to_end if args.trace == 0 else per_layer
        metrics, notes, extra = measure(run, args, root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = run.tally
    env = environment(root)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env,
        "metrics": {k: v for k, (v, _) in metrics.items()}, **extra,
        "attempted": tally.attempted, "failed": tally.failed, "mismatched": tally.mismatched,
        "errors": run.errors[:20],
    }
    results_dir = os.path.join(root, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} rows/pass={run.rows}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for error in run.errors[:5]:
        print(f"# error {error}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<20} {name:<48} {value:.6g} {unit}  {notes.get(name, '')}".rstrip())
    print(f"{args.workload:<20} {'failed_frac':<48} {tally.failed_frac:.6g} 1  "
          f"{tally.failed} of {tally.attempted} value cells; {tally.mismatched} differ from the reference")
    return {
        "correct": tally.mismatched == 0 and not run.errors,
        "attempted": tally.attempted,
        "failed": tally.mismatched,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload, each in its own process (peak RSS is per process)."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--reference", args.reference]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"perfbench: workload {name} failed with exit code {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return total


def write_references(args, root: str) -> None:
    import workloads

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    os.makedirs(args.reference, exist_ok=True)
    workdir = os.path.join(root, ".perfbench", f"reference-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for name in names:
            for part in workloads.WORKLOADS[name].parts:
                path = workloads.reference_path(args.reference, name, part.part)
                part.write_reference(path, workdir)
                print(f"wrote {path}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "wavetime", "cli.py")):
        raise SystemExit("perfbench: no wavetime sources in ./src; run from the root of a wavetime checkout")
    sys.path.insert(0, src)
    import wavetime

    if not os.path.abspath(wavetime.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported wavetime from {wavetime.__file__}, not from {src}")
    if args.write_reference:
        write_references(args, root)
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
