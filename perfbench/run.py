"""charzero benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload zero-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/charzero`` there and nowhere else.  The run lasts about ``--seconds``:
it first times the set-up in fresh processes, then makes passes over the
workload's seeded input list until the time is up (at least one whole
pass).  Each call's output is checked after its pass, outside the timed
region.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: setup_s (the
median of several fresh processes that import, generate inputs and warm
caches), norm_wall_s (the sum over calls of each call's mean time) and
peak_rss_mb.  Both times are scaled to the host's reference speed, measured
by a fixed probe between calls (see PROBE_REF_S).  ``--trace 1`` prints the
per-layer metrics instead; it alternates untraced and traced passes, takes
each layer metric's median over the traced passes and reports the tracing
overhead.  The last line of standard output is always the result
object; the line before it holds the run information, and both, with the
spans of a traced run, are written under ``.perfbench-out/``.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# single-threaded: numpy's BLAS would otherwise spread the grid scan's
# matrix products over every core; BLAS reads these when numpy loads
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 120


def import_charzero():
    """The checkout's own charzero; exit nonzero when the checkout has none."""
    pkg_dir = ROOT / "src" / "charzero"
    if not (pkg_dir / "__init__.py").is_file():
        sys.exit(f"error: no charzero sources at {pkg_dir.relative_to(ROOT)}")
    sys.path.insert(0, str(pkg_dir.parent))
    import charzero
    from charzero import dirichlet, harness, lfunction, multfn, plancherel, sieve, zeros  # noqa: F401

    if Path(charzero.__file__).resolve().parent != pkg_dir:
        sys.exit(f"error: imported charzero from {charzero.__file__}, not the checkout")
    return charzero


def commit_id() -> str:
    """HEAD of the checkout's git directory, read without running git."""
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
    return "unknown"


def run_info(args, cz) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "charzero").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "charzero": cz.__version__,
        "commit": commit_id(),
        "source_sha256": digest.hexdigest(),
    }


def setup_clock() -> float:
    """CLOCK_MONOTONIC, which all processes of the machine share on Linux."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def measure_setup(args) -> list:
    """[(wall time, mean probe time around it)] of fresh processes that only
    set the workload up."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
        "--seconds", "0", "--trace", "0",
    ] + (["--smoke"] if args.smoke else [])
    samples = []
    before = probe_s()
    for _ in range(SETUP_SAMPLES):
        # the child prints the clock when its set-up ends: the time it takes
        # to exit is not set-up, and waiting on it with a timeout polls in
        # steps of up to 50 ms
        t0 = setup_clock()
        child = subprocess.run(
            cmd, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
            stdout=subprocess.PIPE, text=True,
        )
        wall = float(child.stdout.split()[-1]) - t0
        after = probe_s()
        samples.append((wall, 0.5 * (before + after)))
        before = after
    return samples


class Tally:
    """Items attempted and failed; verdicts are cached per identical output,
    so a rerun that reproduces a checked output is not checked again."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self._verdicts: dict = {}

    def add(self, label, out) -> None:
        n = self.workload.items(label)
        self.attempted += n
        if isinstance(out, Exception):
            self.failed += n
            return
        key = (label, repr(out))
        if key not in self._verdicts:
            try:
                self._verdicts[key] = min(n, self.workload.check(label, out))
            except Exception:  # a check that cannot run fails its items
                traceback.print_exc()
                self._verdicts[key] = n
        self.failed += self._verdicts[key]


# The host this was built on runs 1.3 to 2 times slower for stretches of
# seconds to minutes (other tenants share its cores), so raw call times
# follow the host more than the code.  A fixed reference computation, which
# does not touch charzero, is timed between calls; each call's time is scaled
# by PROBE_REF_S over the mean of the probes on either side of it.
# PROBE_REF_S is the probe's time on that host when quiet (2-vCPU Xeon).
PROBE_REF_S = 0.004


@functools.cache
def _probe_arrays():
    return np.linspace(0.1, 1.0, 4096), np.linspace(0.0, 1.0, 1 << 21)


def _reference_work() -> float:
    """Interpreter work, numpy on a cache-sized array and a pass over a 16 MB
    array; returns its wall time."""
    small, large = _probe_arrays()
    t0 = time.perf_counter()
    acc = 0
    for i in range(40000):
        acc += i % 7
    a = small
    for _ in range(20):
        a = a + 1e-12 * (np.exp(1j * a) * np.log(a)).real
    float(np.dot(large, large))
    return time.perf_counter() - t0


def probe_s() -> float:
    """The host's current speed, as the reference work's wall time.  The
    faster of two runs: the first refills the caches that the call or child
    process before it emptied, so the probe does not depend on how much
    memory that call used."""
    return min(_reference_work(), _reference_work())


def run_pass(workload, times: dict, deadline=None):
    """[(label, output or exception)] for one pass, cut short before the
    first call that would start after ``deadline``.  Each call appends
    (its wall time, the mean probe time around it) to times[label]."""
    outs = []
    before = probe_s()
    for label, call in workload.calls:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a failing item counts against failed_frac
            out = exc
        wall = time.perf_counter() - t0
        after = probe_s()
        times.setdefault(label, []).append((wall, 0.5 * (before + after)))
        before = after
        if isinstance(out, Exception):
            traceback.print_exception(out, file=sys.stderr)
        outs.append((label, out))
    return outs


def scaled(samples) -> list:
    """Wall times at the reference speed, from (wall time, probe time)
    samples, in increasing order."""
    return sorted(wall * PROBE_REF_S / probe for wall, probe in samples)


def trimmed_mean(values: list) -> float:
    """Mean of sorted values without the smallest and the largest.  A call's
    scaled times scatter by about 9% in a run, mostly where the host's speed
    changed during a long call; their mean scatters less from run to run
    than their median, and dropping the extremes keeps one stall out."""
    return statistics.fmean(values[1:-1]) if len(values) >= 3 else statistics.median(values)


def norm_wall(times: dict) -> float:
    """Time to solution for the whole input list at the reference speed: the
    sum over calls of each call's trimmed mean scaled time over the run."""
    return sum(trimmed_mean(scaled(ts)) for ts in times.values())


def raw_wall(times: dict) -> float:
    """The same, unscaled: the sum over calls of each call's fastest time."""
    return sum(min(wall for wall, _ in ts) for ts in times.values())


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + args.seconds

    cz = import_charzero()
    sys.path.insert(0, str(BENCH_DIR))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.WORKLOADS[args.workload](cz, args.seed, args.smoke).warm()
        print(repr(setup_clock()))
        return 0

    # one CPU for the run and its set-up processes, so that the probe times
    # the CPU that the timed work runs on: the two CPUs of the build machine
    # slow down at different times
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup = None if args.trace else measure_setup(args)
    wl = workloads.WORKLOADS[args.workload](cz, args.seed, args.smoke)
    wl.warm()

    tally = Tally(wl)
    times, traced_times, layer_runs, span_runs = {}, {}, [], []
    tracer = tracing.Tracer(cz) if args.trace else None
    while True:
        # untraced runs may stop inside a pass, traced runs only between
        # passes, so that each traced pass covers the whole input list
        cut = deadline if times and tracer is None else None
        for label, out in run_pass(wl, times, cut):
            tally.add(label, out)
        if tracer is not None:
            tracer.install()
            try:
                outs = run_pass(wl, traced_times)
            finally:
                tracer.uninstall()
            spans = tracer.take()
            layer_runs.append(tracing.derive_metrics(spans))
            span_runs.append(spans)
            for label, out in outs:
                tally.add(label, out)
        if time.perf_counter() >= deadline:
            break

    info = run_info(args, cz)
    info.update(
        passes=len(next(iter(times.values()))),
        timings_per_call=min(len(ts) for ts in times.values()),
        raw_wall_s=raw_wall(times),
        probe_median_s=statistics.median(p for ts in times.values() for _, p in ts),
        pass_wall_s=[sum(w for w, _ in ts) for ts in zip(*times.values())],
        failed_frac=tally.failed / tally.attempted,
    )
    if tracer is None:
        info["raw_setup_s"] = statistics.median(wall for wall, _ in setup)
        metrics = {
            "setup_s": metric(statistics.median(scaled(setup)), "s"),
            "norm_wall_s": metric(norm_wall(times), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }
    else:
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {
            name: metric(statistics.median(run[name] for run in layer_runs), units[name])
            for name in layer_runs[0]
        }
        metrics["trace.overhead_s"] = metric(norm_wall(traced_times) - norm_wall(times), "s")
        info["traced_pass_wall_s"] = [sum(w for w, _ in ts) for ts in zip(*traced_times.values())]
        info["self_time_shares"] = tracing.self_time_shares(span_runs[-1])
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(
        json.dumps({"run_info": info, "result": result, "call_s": times}, indent=1)
    )
    if span_runs:
        with open(OUT_DIR / f"spans-{stem}.jsonl", "w") as fh:
            fh.write(json.dumps({"run_info": info, "span": ["name", "parent", "start", "end", "notes"]}) + "\n")
            for i, spans in enumerate(span_runs):
                for span in spans:
                    fh.write(json.dumps([i] + span) + "\n")
    print(json.dumps({"run_info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
