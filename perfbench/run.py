"""Benchmark for the wassfilter pipeline.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload compare_c8 --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) as a closed loop in this process
for ``--seconds``, checks every pass's outputs, scales its times to
reference host speed (``hostspeed.py``), and prints a report: one
line per metric with its unit and sample count, a JSON line with the report
and the machine record, and last a JSON result line. ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` gives the per-layer metrics of
``layertrace.py`` from a fixed amount of traced work (one pass, or one sweep
of the update problems), with untraced twins for the overhead figure.

The package is imported from ``src/`` of the checkout holding this file and
nowhere else; without it the benchmark exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One process, one BLAS thread: on these 2-D problems a second OpenBLAS
# thread doubles CPU time without shortening a pass, and a run-level process
# pool in the package would otherwise oversubscribe the CPUs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
NPROC = len(os.sched_getaffinity(0))

import hostspeed  # noqa: E402  (siblings; numpy must see the settings above)
import layertrace  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
# Untraced runs read a host speed kernel while they measure and scale their
# times to reference host speed (see ``hostspeed.py``): a pipeline pass by
# the mean speed over that pass, update times in stretches of
# UPDATE_STRETCH_S by the mean speed over the stretch.
UPDATE_STRETCH_S = 2.0
# The tail is the highest percentile with this many distinct inputs beyond it.
TAIL_BEYOND = 10
# In a traced update sweep, every this-many-th problem also runs untraced.
OVERHEAD_EVERY = 4
END_TO_END = ("setup_s", "filter_steps_per_s", "update_p50_ms", "update_tail_ms",
              "peak_rss_mb")


def import_package():
    if not (SRC / "wassfilter" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'wassfilter'}")
    sys.path.insert(0, str(SRC))
    import wassfilter
    if Path(wassfilter.__file__).resolve().parent != (SRC / "wassfilter").resolve():
        sys.exit(f"error: imported wassfilter from {wassfilter.__file__}, not {SRC}")
    return wassfilter


def machine_record() -> dict:
    import numpy
    import scipy
    record = {
        "cpu_count": os.cpu_count(), "cpus_usable": NPROC,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
    }
    try:
        record["cpu_model"] = next(line.split(":", 1)[1].strip()
                                   for line in open("/proc/cpuinfo")
                                   if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    record["blas_threads"] = _openblas_threads()
    return record


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or the environment's setting."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def measure_setup(args) -> list[float]:
    """Wall time from spawning an interpreter until it has imported the
    package and built the workload's inputs, repeated SETUP_PROBES times.
    Not scaled to host speed: read in this process while the probe ran,
    the ``em`` kernel left the spread of start-up times as it was."""
    times = []
    for _ in range(SETUP_PROBES):
        tic = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"], stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - tic
        finally:
            proc.stdout.close()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"error: setup probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def tail(samples: list[float], distinct: int) -> tuple[float, float]:
    """The percentile with TAIL_BEYOND of ``distinct`` inputs beyond it, or the
    maximum when there are too few. Fixing it by the input count rather than
    the sample count keeps it the same percentile when a faster program
    repeats the inputs more often."""
    import numpy
    if distinct <= TAIL_BEYOND:
        return 100.0, max(samples)
    pct = 100.0 * (1.0 - TAIL_BEYOND / distinct)
    return pct, float(numpy.percentile(samples, pct))


class Loop:
    """Closed loop: runs one unit after another until the time budget is spent."""

    def __init__(self, workload, tracer, seconds: float, traced: bool):
        self.w = workload
        self.tracer = tracer
        self.seconds = seconds
        self.traced = traced
        self.sampler = hostspeed.Sampler(workload.host_kernel)
        self.plain: list[float] = []       # untraced unit times
        self.scaled: list[float] = []      # the same, scaled to reference host speed
        self.with_trace: list[float] = []  # traced unit times
        self.per_step: list[float] = []    # scaled untraced seconds per filter-step
        self.per_step_raw: list[float] = []
        self.plain_steps = 0               # filter-steps in untraced units
        self.steps = 0
        self.failed = 0
        self.quality: dict = {}
        self.cpu = 0.0                     # CPU seconds of traced units
        self.pairs: list[tuple] = []       # (untraced, traced) times of one unit

    def _traced(self, fn, trace_on: bool):
        self.tracer.enabled = trace_on
        try:
            return fn()
        finally:
            self.tracer.enabled = False

    def run(self):
        # Traced runs are not sampled: their times are raw, and the handler
        # would land inside the spans.
        sampling = contextlib.nullcontext() if self.traced else self.sampler
        clock = time.perf_counter if self.traced else self.sampler.clock
        with sampling:
            if self.w.pipeline:
                self._run_pipeline(clock)
            else:
                self._run_updates(clock)

    def _run_pipeline(self, clock):
        # At least the workload's minimum number of passes, more while the
        # time allows. A traced run makes exactly two, one untraced and one
        # traced, so its work counts cover one pass.
        fingerprint = None
        start = time.perf_counter()
        n = 0
        times: list[float] = []
        min_passes = 2 if self.traced else self.w.min_passes
        while n < min_passes or (not self.traced and time.perf_counter() - start
                                 + statistics.mean(times) <= self.seconds):
            trace_on = self.traced and n == 1
            first_reading = len(self.sampler.times)
            tic = clock()
            try:
                result = self._traced(lambda: self.w.run_pass(clock), trace_on)
            except Exception as exc:  # a failing pass is counted, not fatal
                print(f"pass {n} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                times.append(clock() - tic)
                self.steps += self.w.filter_steps_per_pass
                self.failed += self.w.filter_steps_per_pass
                n += 1
                continue
            failed = result.failed
            if fingerprint is None:
                fingerprint = result.fingerprint
                self.quality = result.quality
            elif result.fingerprint != fingerprint:
                print(f"pass {n}: outputs differ from the first pass", file=sys.stderr)
                failed = result.filter_steps
            self.steps += result.filter_steps
            self.failed += failed
            times.append(result.seconds)
            if trace_on:
                self.with_trace.append(result.seconds)
                self.cpu += result.cpu_seconds
            else:
                scaled = result.seconds
                if not self.traced:
                    scaled *= self.sampler.speed(first_reading)
                self.plain.append(result.seconds)
                self.scaled.append(scaled)
                self.plain_steps += result.filter_steps
                self.per_step_raw.append(result.seconds / result.filter_steps)
                self.per_step.append(scaled / result.filter_steps)
            n += 1
        if self.plain and self.with_trace:
            self.pairs.append((self.plain[0], self.with_trace[0]))

    def _run_updates(self, clock):
        # Untraced: at least one sweep of the problem set, then cycle until
        # the time is spent. Traced: exactly one traced sweep, so the work
        # counts cover the set once; every OVERHEAD_EVERY-th problem also
        # runs untraced just before, for the overhead comparison.
        w = self.w
        stretch_start, stretch, first_reading = time.perf_counter(), 0, 0
        start = time.perf_counter()
        i = 0
        while i < len(w.problems) or (not self.traced
                                      and time.perf_counter() - start < self.seconds):
            index = i % len(w.problems)
            problem = w.problems[index]
            modes = (False,)
            if self.traced:
                modes = (False, True) if index % OVERHEAD_EVERY == 0 else (True,)
            pair = []
            for trace_on in modes:
                tic, cpu0 = clock(), workloads.cpu_seconds()
                try:
                    outcome = self._traced(
                        lambda: self.tracer.span("update", w.update, problem), trace_on)
                    elapsed = clock() - tic
                    ok = w.check(index, outcome)
                except Exception as exc:  # a failing update is counted, not fatal
                    print(f"update {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                    elapsed, ok = clock() - tic, False
                if trace_on:
                    self.cpu += workloads.cpu_seconds() - cpu0
                self.steps += 1
                self.failed += 0 if ok else 1
                (self.with_trace if trace_on else self.plain).append(elapsed)
                pair.append(elapsed)
            if len(pair) == 2:
                self.pairs.append(tuple(pair))
            i += 1
            if not self.traced and time.perf_counter() - stretch_start >= UPDATE_STRETCH_S:
                self._scale(stretch, first_reading)
                stretch, first_reading = len(self.plain), len(self.sampler.times)
                stretch_start = time.perf_counter()
        if not self.traced:
            self._scale(stretch, first_reading)
        self.per_step = list(self.scaled)
        self.per_step_raw = list(self.plain)
        self.plain_steps = len(self.plain)
        self.quality = w.quality()

    def _scale(self, stretch: int, first_reading: int):
        """Scale the update times from index ``stretch`` on by the mean host
        speed over the readings from ``first_reading`` on."""
        if stretch < len(self.plain):
            factor = self.sampler.speed(first_reading)
            self.scaled.extend(t * factor for t in self.plain[stretch:])


def end_to_end(loop: Loop, setup: list[float], workload) -> dict:
    """End-to-end metrics. Timings are scaled to reference host speed, with
    the raw wall-clock figure beside each."""
    per_step_ms = [t * 1e3 for t in loop.per_step]
    raw_ms = [t * 1e3 for t in loop.per_step_raw]
    distinct = len(per_step_ms) if workload.pipeline else len(workload.problems)
    pct, tail_ms = tail(per_step_ms, distinct)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(per_step_ms)
    report = {
        "setup_s": {"value": statistics.median(setup), "unit": "s", "samples": len(setup)},
        "filter_steps_per_s": {"value": loop.plain_steps / sum(loop.scaled), "unit": "1/s",
                               "samples": loop.plain_steps},
        "update_p50_ms": {"value": statistics.median(per_step_ms), "unit": "ms", "samples": n},
        "update_tail_ms": {"value": tail_ms, "unit": "ms", "samples": n, "percentile": pct},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB", "samples": 1},
        "failed_frac": {"value": loop.failed / max(1, loop.steps), "unit": "frac",
                        "samples": loop.steps},
    }
    report["filter_steps_per_s"]["raw"] = loop.plain_steps / sum(loop.plain)
    report["update_p50_ms"]["raw"] = statistics.median(raw_ms)
    report["update_tail_ms"]["raw"] = tail(raw_ms, distinct)[1]
    report["host_speed"] = {"value": loop.sampler.speed(), "unit": "x",
                            "samples": len(loop.sampler.times)}
    units = {"rmse": "state", "prior_loglik_per_point": "nats/point", "ngsf_cost_gap": "cost"}
    for name, (value, samples) in loop.quality.items():
        report[name] = {"value": value, "unit": units[name], "samples": samples}
    if workload.pipeline:
        note = "per filter-step, pass time / filter-steps in the pass"
        report["update_p50_ms"]["basis"] = report["update_tail_ms"]["basis"] = note
    return report


def per_layer(loop: Loop, tracer) -> dict:
    layers = tracer.layer_times()
    calls, busy, own = layers["calls"], layers["busy"], layers["self"]
    c = tracer.counts
    total = sum(loop.with_trace)

    def div(a, b):
        return a / b if b else 0.0

    overhead = div(sum(t for _, t in loop.pairs), sum(p for p, _ in loop.pairs)) - 1.0
    fits, solves = c["em.fits"], c["ngsf.solves"]
    m = {
        "propagation.rk4.calls": (calls["propagation.rk4"], "count"),
        "propagation.rk4.busy_s": (busy["propagation.rk4"], "s"),
        "propagation.rk4.share": (div(busy["propagation.rk4"], total), "frac"),
        "propagation.rk4.particle_substeps": (c["rk4.particle_substeps"], "count"),
        "propagation.rk4.ns_per_particle_substep": (
            div(busy["propagation.rk4"] * 1e9, c["rk4.particle_substeps"]), "ns"),
        "propagation.em.calls": (calls["propagation.em"], "count"),
        "propagation.em.busy_s": (busy["propagation.em"], "s"),
        "propagation.em.share": (div(busy["propagation.em"], total), "frac"),
        "propagation.em.iterations": (c["em.iterations"], "count"),
        "propagation.em.iters_per_fit": (div(c["em.iterations"], fits), "count"),
        "propagation.em.max_iter_hit_frac": (div(c["em.max_iter_hits"], fits), "frac"),
        "propagation.em.reseeds": (c["em.reseeds"], "count"),
        "propagation.em.loglik_per_point": (div(c["em.loglik_per_point_sum"], fits),
                                            "nats/point"),
        "propagation.em.point_component_iters": (c["em.point_component_iters"], "count"),
        "propagation.em.ns_per_point_component_iter": (
            div(busy["propagation.em"] * 1e9, c["em.point_component_iters"]), "ns"),
        "gsf.calls": (calls["gsf"], "count"),
        "gsf.busy_s": (busy["gsf"], "s"),
        "gsf.self_s": (own["gsf"], "s"),
        "gsf.share": (div(busy["gsf"], total), "frac"),
        "kalman.calls": (calls["kalman"], "count"),
        "kalman.busy_s": (busy["kalman"], "s"),
        "ngsf.calls": (calls["ngsf"], "count"),
        "ngsf.busy_s": (busy["ngsf"], "s"),
        "ngsf.share": (div(busy["ngsf"], total), "frac"),
        "ngsf.iterations": (c["ngsf.iterations"], "count"),
        "ngsf.converged_frac": (div(c["ngsf.converged"], solves), "frac"),
        "ngsf.max_iter_hit_frac": (div(c["ngsf.max_iter_hits"], solves), "frac"),
        "gaussian.resample.calls": (calls["gaussian.resample"], "count"),
        "gaussian.resample.busy_s": (busy["gaussian.resample"], "s"),
        "gaussian.resample.points_drawn": (c["resample.points_drawn"], "count"),
        "harness.emit.busy_s": (busy["harness.emit"], "s"),
        "harness.emit.files": (c["emit.files"], "count"),
        "harness.emit.bytes": (c["emit.bytes"], "bytes"),
        "harness.self_s": (own["harness"], "s"),
        "harness.cpu_s": (loop.cpu, "s"),
        "harness.trace_overhead_frac": (overhead, "frac"),
    }
    return {name: {"value": float(v), "unit": u} for name, (v, u) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    wf = import_package()

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    make = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        make(wf, args.seed, ROOT)
        print("ready", flush=True)
        return 0

    setup = [] if args.trace else measure_setup(args)
    workload = make(wf, args.seed, ROOT)
    tracer = layertrace.Tracer()
    if args.trace:
        layertrace.install(tracer, wf, workload.pipeline)
    loop = Loop(workload, tracer, args.seconds, bool(args.trace))
    try:
        loop.run()
    finally:
        tracer.unpatch()
    if not loop.plain_steps:
        sys.exit("error: every pass raised; nothing was measured")

    if args.trace:
        metrics = per_layer(loop, tracer)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        report = metrics
    else:
        report = end_to_end(loop, setup, workload)
        metrics = {k: {"value": report[k]["value"], "unit": report[k]["unit"]}
                   for k in END_TO_END}

    for name, entry in report.items():
        extra = "".join(f" {k}={v}" for k, v in entry.items() if k not in ("value", "unit"))
        print(f"{args.workload:<15} {name:<45} {entry['value']:>14.6g} {entry['unit']}{extra}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "seconds": args.seconds, "machine": machine_record(),
                      "report": report}, sort_keys=True))
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.steps,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
