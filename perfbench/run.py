"""flsim's benchmark: run one workload in this process, check its outputs
and print its metrics.

    python3 perfbench/run.py --workload s1_detect --seed 1 --seconds 30 --trace 0

The workload runs as a closed loop with one caller: each iteration is the
flsim command of the workload (`detect` or `sim`) on the generated
scenario with the iteration's own run seed, timed from the loaded scenario
to the last output file written, and the next iteration starts when the
previous one, its output checks and two set-ups are done. Iterations
continue while another one still fits in --seconds, and there are at
least two (with tracing, one untraced and one traced), and enough to
pool the rays compare_beam needs (workloads.COMPARE_RAYS).

Times are reported in seconds at a fixed host speed (see hostspeed.py).
Untraced iterations probe the host's speed right before the command,
right after its analytic curves and right after the command; each of the
iteration's times is scaled by the mean of its own probes, and the probe
inside the command is taken out of wall_s. Set-up times are scaled by the
mean of all the run's probes. The measured seconds are printed as well.

--trace 0 reports the end-to-end metrics, each the median over the run's
untraced iterations (setup_s: over its set-ups); the lines before the
result give the sample counts and every sample.

--trace 1 reports the per-layer metrics, each a median over the traced
iterations. A traced run alternates untraced and traced iterations; the
traced ones time calls into flsim's modules from outside (see spans.py),
and all spans are written to .perfbench_out/ when the run ends.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 when every check passed, 1 when one failed and 2 when
the workload could not be set up at all (no result is printed then).
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools stay at one thread: one caller, no hidden workers.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import yaml

import hostspeed
import spans as sp
import workloads as wl

SETUP_REPS_FIRST = 2
SETUP_REPS_EACH = 1
MIN_ITERATIONS = 2
BENCHMARK = wl.ROOT / "BENCHMARK.json"
WORK_DIR = wl.ROOT / ".perfbench_work"
OUT_DIR = wl.ROOT / ".perfbench_out"

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import flsim; print(time.perf_counter() - t)"
)


def median(values):
    return statistics.median(values) if values else None


def import_seconds() -> float:
    """Time to import flsim in a fresh interpreter, measured inside it."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(wl.SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Bench:
    """One run of one workload."""

    def __init__(self, flsim, workload, seed: int, seconds: float, traced: bool,
                 work: Path):
        self.flsim = flsim
        self.runner = flsim.runner
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.tracer = sp.Tracer()
        self.checks = wl.Checks()
        self.work = work
        self.reference = wl.load_reference(workload.base)
        self.results = {}
        self.setup_times = []
        self.probes = []
        self.iteration_probes = []
        self.probing = False
        self.probed_s = 0.0
        self.nulls = None
        self.pooled = {}
        self.pooled_rays = 0
        work.mkdir(parents=True)
        self.document = self.work / "scenario.yaml"
        doc = wl.document(workload, seed)
        self.document.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, on_result=None):
        return lambda func: self.tracer.wrapped(func, name, on_result)

    def _keep(self, key, probe=False):
        """on_result hook keeping the duration and return value of the call
        (its span is the one the tracer closed last); with probe, it then
        probes the host's speed while the iteration is probing."""

        def on_result(tr, result, args, kwargs):
            self.results[key] = (tr.spans[-1].duration, result)
            if probe and self.probing:
                self._probe()

        return on_result

    def _probe(self) -> None:
        """One host-speed probe for the current iteration; probed_s adds up
        the seconds the iteration's probes took."""
        t0 = time.perf_counter()
        self.iteration_probes.append(hostspeed.probe())
        self.probed_s += time.perf_counter() - t0

    def _targets(self, traced: bool):
        """Module attributes replaced for one iteration. Untraced, only the
        two calls whose durations are end-to-end metrics are timed."""
        runner, nullmodel, raysim = self.runner, self.flsim.nullmodel, self.flsim.raysim
        timed = [
            (runner, "compute_null",
             self._span("runner.compute_null", self._keep("null", probe=True))),
            (runner, "simulate", self._span("runner.simulate", self._keep("sim"))),
        ]
        if not traced:
            return timed
        in_ping = {"traces": 0}

        def ping_name():
            in_ping["traces"] = 0
            return "raysim.ping"

        def trace_name():
            in_ping["traces"] += 1
            first = in_ping["traces"] == 1
            return "raysim.trace_primary" if first else "raysim.trace_multipath"

        def null_counts(tr, result, args, kwargs):
            tr.count("nullmodel.beams", 1)
            tr.count("nullmodel.bins", result.layout.num_bins)

        def ping_counts(tr, result, args, kwargs):
            tr.count("raysim.object_bins", int((result.object_ > 0.0).sum()))

        def ray_counts(tr, result, args, kwargs):
            tr.count("raysim.rays", len(result))

        def detect_counts(tr, result, args, kwargs):
            tr.count("detect.detections", int(result.decisions.sum()))

        return timed + [
            (runner, "build_scene", self._span("scenario.build_scene")),
            (runner, "expected_null", self._span("nullmodel.expected_null", null_counts)),
            (nullmodel, "bottom_return_bins", self._span("nullmodel.bottom")),
            (nullmodel, "surface_return_bins", self._span("nullmodel.surface")),
            (nullmodel, "volume_return_bins", self._span("nullmodel.volume")),
            (runner, "ping", self._span(ping_name, ping_counts)),
            (raysim, "sample_ray_directions", self._span("raysim.sample_dirs", ray_counts)),
            (raysim, "_trace_batch", self._span(trace_name)),
            (runner, "add_noise", self._span("raysim.add_noise")),
            (runner, "detect_ping", self._span("detect.detect_ping", detect_counts)),
        ]

    # -- phases -----------------------------------------------------------

    def setup(self, reps: int) -> None:
        """reps set-ups, each an import of flsim in a fresh interpreter and a
        load, override and scene build here; their seconds go to
        setup_times. Set-ups are spread over the run so that they sample
        the machine at the same moments as the iterations."""
        runner, scenario_mod = self.runner, self.flsim.scenario
        for _ in range(reps):
            self.tracer.group = f"setup:{len(self.setup_times)}"
            imported = import_seconds()
            t0 = time.perf_counter()
            with self.tracer.span("scenario.load") if self.traced else nullcontext():
                scenario = scenario_mod.load_scenario(str(self.document))
            with self.tracer.span("runner.with_overrides") if self.traced else nullcontext():
                scenario = runner.with_overrides(scenario, **self.workload.overrides)
            with self.tracer.span("scenario.build_scene") if self.traced else nullcontext():
                scenario_mod.build_scene(scenario)
            self.setup_times.append(imported + time.perf_counter() - t0)
            self.scenario = scenario

    def iteration(self, index: int, traced: bool):
        """One timed run of the workload's command with the iteration's own
        run seed, then its checks. The `sim` command computes no analytic
        curves, so for its checks the benchmark computes them after the
        timed part, and null_s times that. An untraced iteration probes the
        host's speed around the command and after the analytic curves, and
        its times are scaled by the mean of these probes. Returns None when
        an exception stopped the iteration; its operations then count as
        failed."""
        w = self.workload
        beams, pings = self.scenario.sonar.beams, self.scenario.num_pings
        out = self.work / f"out{index}"
        command = self.runner.run_detect if w.command == "detect" else self.runner.run_sim
        self.tracer.group = f"{'iter' if traced else 'plain'}:{index}"
        self.results.clear()
        self.iteration_probes = []
        self.probing = not traced
        gc.collect()
        try:
            sc = self.runner.with_overrides(self.scenario,
                                            seed=wl.iteration_seed(self.seed, index))
            with sp.patched(self._targets(traced)):
                if self.probing:
                    self._probe()
                self.probed_s = 0.0
                t0 = time.perf_counter()
                with self.tracer.span(f"runner.run_{w.command}") if traced else nullcontext():
                    returned = command(sc, str(out))
                wall = time.perf_counter() - t0 - self.probed_s
                if self.probing:
                    self._probe()
                if w.command == "detect":
                    detections = returned
                else:
                    self.runner.compute_null(sc)
                    detections = {
                        b.name: [
                            self.runner.detect_ping(p, self.results["null"][1][b.name],
                                                    **_detect_kwargs(sc))
                            for p in returned[b.name]["pings"]
                        ]
                        for b in beams
                    }
            null_s, nulls = self.results["null"]
            sim_s, results = self.results["sim"]
            self.check(sc, nulls, results, detections, out, traced)
        except Exception as err:  # a failed iteration fails all its operations
            self.checks.fail(len(beams) * (pings + 1) + 1,
                             f"iteration {index}: {type(err).__name__}: {err}")
            return None
        finally:
            self.probing = False
            self.probes.extend(self.iteration_probes)
            shutil.rmtree(out, ignore_errors=True)
        return {
            "wall": wall, "null": null_s, "sim": sim_s, "pings": len(beams) * pings,
            "factor": hostspeed.factor(self.iteration_probes) if not traced else 1.0,
        }

    def check(self, sc, nulls, results, detections, out, traced) -> None:
        """Checks on one iteration's outputs. Ping intensities are also
        pooled over the run for check_compare (see finish)."""
        w, beams, pings = self.workload, sc.sonar.beams, sc.num_pings
        self.nulls = nulls
        wl.check_null(self.checks, nulls, self.reference)
        wl.check_pings(self.checks, results, beams, pings)
        for b in beams:
            total, count = self.pooled.get(b.name, (0.0, 0))
            self.pooled[b.name] = (total + results[b.name]["mean_linear"] * pings,
                                   count + pings)
        self.pooled_rays += pings * sc.sonar.num_rays
        if w.flags is not None:
            wl.check_flags(self.checks, detections, nulls[beams[0].name].bin_centers,
                           wl.flag_window(w, self.seed, sc))
        if w.mesh:
            wl.check_object(self.checks, results, wl.flag_window(w, self.seed, sc))
        nbytes = wl.check_files(self.checks, out, wl.expected_files(w, len(beams), pings))
        if traced:
            self.tracer.count("runner.files_written", sum(1 for _ in out.iterdir()))
            self.tracer.count("runner.bytes_written", nbytes)

    def finish(self) -> None:
        """compare_beam on the mean over every ping of the run, so that a
        workload whose iterations simulate few pings is still compared
        over as many as its scenario's comparison needs."""
        if self.workload.mesh or not self.pooled:
            return  # the obstacle's echo is meant to stand out of the null
        try:
            pooled = {name: {"mean_linear": total / count}
                      for name, (total, count) in self.pooled.items()}
            wl.check_compare(self.checks, self.runner, self.scenario, self.nulls, pooled)
        except Exception as err:
            self.checks.fail(len(self.pooled), f"compare: {type(err).__name__}: {err}")

    def measure(self) -> tuple:
        """Closed loop of iterations for --seconds, and at least until the
        run has pooled the rays check_compare needs. Returns the untraced
        and traced iteration records."""
        plain, traced = [], []
        spent = []
        self.setup(SETUP_REPS_FIRST)
        deadline = time.perf_counter() + self.seconds
        index = 0
        while True:
            start = time.perf_counter()
            use_trace = self.traced and index % 2 == 1
            record = self.iteration(index, use_trace)
            if record is None:
                break
            (traced if use_trace else plain).append(record)
            self.setup(SETUP_REPS_EACH)
            spent.append(time.perf_counter() - start)
            index += 1
            enough = index >= MIN_ITERATIONS and (
                self.workload.mesh or self.pooled_rays >= wl.COMPARE_RAYS)
            if enough and time.perf_counter() + median(spent) > deadline:
                break
        self.finish()
        return plain, traced

    # -- metrics ----------------------------------------------------------

    def end_to_end(self, plain) -> dict:
        """Medians over the untraced iterations (set-up: over the set-ups),
        in seconds at the reference host speed."""
        return {
            "wall_s": median([r["factor"] * r["wall"] for r in plain]),
            "setup_s": hostspeed.factor(self.probes) * median(self.setup_times),
            "null_s": median([r["factor"] * r["null"] for r in plain]),
            "sim_pings_per_s": median([r["pings"] / (r["factor"] * r["sim"])
                                       for r in plain]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self, plain, traced) -> dict:
        """Medians over the traced iterations (set-up layers: over the
        set-ups), in measured seconds."""
        groups = sp.by_group(self.tracer.spans)
        setup = [g for name, g in groups.items() if name.startswith("setup:")]
        work = {name: g for name, g in groups.items() if name.startswith("iter:")}
        counts = self.tracer.counts

        def setup_total(name):
            return median([sum(sp.durations(g, name)) for g in setup])

        def work_total(name):
            values = [sum(sp.durations(g, name)) for g in work.values()]
            return median([v for v in values if v > 0.0])

        def work_count(name):
            return median([counts[g][name] for g in work if name in counts[g]] or [0])

        def self_time(key, by_name=False):
            values = [sp.self_times(g, by_name).get(key, 0.0) for g in work.values()]
            return median([v for v in values if v > 0.0])

        pings = [d for g in work.values() for d in sp.durations(g, "raysim.ping")]
        rates = [
            counts[name]["raysim.rays"] / sum(sp.durations(g, "raysim.ping"))
            for name, g in work.items()
            if sp.durations(g, "raysim.ping")
        ]
        out = {
            "scenario.load_s": setup_total("scenario.load"),
            "scenario.build_scene_s": setup_total("scenario.build_scene"),
            "runner.with_overrides_s": setup_total("runner.with_overrides"),
            "nullmodel.expected_null_s": work_total("nullmodel.expected_null"),
            "nullmodel.bottom_s": work_total("nullmodel.bottom"),
            "nullmodel.surface_s": work_total("nullmodel.surface"),
            "nullmodel.volume_s": work_total("nullmodel.volume"),
            "nullmodel.beams": work_count("nullmodel.beams"),
            "nullmodel.bins": work_count("nullmodel.bins"),
            "raysim.ping_s": work_total("raysim.ping"),
            "raysim.ping_ms_p50": 1000.0 * median(pings) if pings else None,
            "raysim.ping_self_s": self_time("raysim.ping", by_name=True),
            "raysim.sample_dirs_s": work_total("raysim.sample_dirs"),
            "raysim.add_noise_s": work_total("raysim.add_noise"),
            "raysim.trace_primary_s": work_total("raysim.trace_primary"),
            "raysim.trace_multipath_s": work_total("raysim.trace_multipath"),
            "raysim.rays": work_count("raysim.rays"),
            "raysim.object_bins": work_count("raysim.object_bins"),
            "raysim.rays_per_s": median(rates),
            "detect.detect_ping_s": work_total("detect.detect_ping"),
            "detect.detections": work_count("detect.detections"),
            "runner.self_s": self_time("runner"),
            "runner.files_written": work_count("runner.files_written"),
            "runner.bytes_written": work_count("runner.bytes_written"),
            "scenario.self_s": self_time("scenario"),
            "nullmodel.self_s": self_time("nullmodel"),
            "raysim.self_s": self_time("raysim"),
            "detect.self_s": self_time("detect"),
            "trace.overhead_frac": (
                median([r["wall"] for r in traced]) / median([r["wall"] for r in plain])
                - 1.0
            ),
        }
        return {k: v for k, v in out.items() if v is not None}

    def write_spans(self) -> Path:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans_{self.workload.name}_seed{self.seed}.json"
        groups = sp.by_group(self.tracer.spans)
        doc = {
            "workload": self.workload.name,
            "seed": self.seed,
            "spans": [s.__dict__ for s in self.tracer.spans],
            "counts": {g: dict(c) for g, c in self.tracer.counts.items()},
            "self_s": {g: sp.self_times(s) for g, s in groups.items()},
        }
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        return path


def _detect_kwargs(scenario) -> dict:
    p = scenario.detect_params
    return {"gamma": p["gamma"], "sigma_db": p["sigma_db"],
            "alt_offset_db": p["alt_offset_db"]}


def _metric_units() -> dict:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        units = _metric_units()
        flsim = wl.import_flsim()
        import flsim.runner  # noqa: F401  (the package does not import it)
    except (OSError, ImportError, ValueError) as err:
        print(f"perfbench: cannot set up: {err}", file=sys.stderr)
        return 2

    # A terminated run still removes its working directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = wl.WORKLOADS[args.workload]
    work = WORK_DIR / f"{workload.name}-{os.getpid()}"
    try:
        bench = Bench(flsim, workload, args.seed, args.seconds, bool(args.trace), work)
        plain, traced = bench.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:  # missing, or another run still uses it
            pass

    print(f"workload {args.workload}  seed {args.seed}  iterations "
          f"{len(plain)} untraced, {len(traced)} traced  set-ups {len(bench.setup_times)}")
    if bench.probes:
        print(f"  host-speed probes: {len(bench.probes)}, mean "
              f"{statistics.fmean(bench.probes):.4f} s; set-up seconds are scaled by "
              f"{hostspeed.factor(bench.probes):.4f}")
        print("  iteration scale factors: "
              + " ".join(f"{r['factor']:.4f}" for r in plain))
    samples = {
        "wall_s": [r["wall"] for r in plain],
        "null_s": [r["null"] for r in plain],
        "simulate_s": [r["sim"] for r in plain],
        "setup_s": bench.setup_times,
    }
    for name, values in samples.items():
        print(f"  {name} measured: " + " ".join(f"{v:.3f}" for v in values))
    metrics = {}
    if plain:
        e2e = bench.end_to_end(plain)
        e2e_units = units["end_to_end"]
        for name, value in e2e.items():
            print(f"  {name:28s} {value:14.6f} {e2e_units.get(name, '')}")
        if not args.trace:
            metrics = {k: {"value": v, "unit": e2e_units[k]} for k, v in e2e.items()}
    if args.trace and traced:
        layer_units = units["per_layer"]
        layers = bench.per_layer(plain, traced)
        for name, value in layers.items():
            print(f"  {name:28s} {value:14.6f} {layer_units.get(name, '')}")
        metrics = {k: {"value": v, "unit": layer_units[k]} for k, v in layers.items()}
        print(f"  spans written to {bench.write_spans().relative_to(wl.ROOT)}")
    checks = bench.checks
    print(f"  {'failed_frac':28s} {checks.failed / max(checks.attempted, 1):14.6f} "
          f"({checks.failed} of {checks.attempted} operations)")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    correct = checks.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
