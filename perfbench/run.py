"""expbases benchmark: seeded scenario workloads driven through the CLI.

    python3 perfbench/run.py --workload dense_grams --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The benchmark imports
``expbases`` from ``src/`` of that checkout (never an installed copy),
writes one round of seeded scenario files, and then runs the round again
and again through ``expbases.cli.main([<command>, "--scenario", f,
"--out", r])`` for ``--seconds``: one client, one process, a closed loop,
so each timing covers JSON load, validation, the library call,
serialization and the atomic report write.

After every scenario run, with the clock paused, the benchmark checks
the exit code, compares the report's verdicts with the generator's
``expect``, and compares the report bytes (``wall_time_s`` lines
stripped) with those of the untimed warm-up round. Anything else is a
failed scenario; none is skipped.

Every end-to-end time is calibrated: scaled by a fixed probe of
interpreter and numpy work timed next to it (``Probe``), so a spell in
which the shared machine runs slow cancels out. README.md gives the
reasons and the measurements.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics, writing the
spans to ``.perfbench_out/``. The last line of standard output is the
result object; the line before it carries details (machine, mix,
digest, tail percentile, uncalibrated figures, ROADMAP cross-check).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# One client thread, and BLAS gets one thread too, unless the caller's
# environment says otherwise. This departs on purpose from what a user's
# CLI run gets (OpenBLAS's default of one thread per core): on a small
# shared machine a second BLAS thread makes every dense solve wait on
# whatever else runs on the other core, and the timings spread. So a
# change that only helps through BLAS threading does not show here;
# baseline.json records one set of dense_grams runs with the default
# thread count to size the gap. Set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Fixed per workload. A round of S scenarios puts S * (1 - p/100) blocks
# of per-scenario samples above the p-th percentile whatever the number
# of rounds, so p is chosen to land inside one scenario's block (or a
# cluster of similar ones) rather than on the edge between two. Each
# leaves at least ten samples beyond it at run_seconds on a 2-core
# machine; the count is printed with the result.
TAIL_PERCENTILE = {"dense_grams": 83, "tiling_search": 79, "small_scenarios": 98}

SETUP_REPEATS = 9

# The machine's speed drifts by up to 2x for tens of seconds at a time
# (other tenants on shared cores), which no run length averages away. So
# a fixed probe of interpreter and numpy work is timed between scenarios,
# at least every PROBE_EVERY_S of scenario time, and each timing is
# scaled by PROBE_REF_S over the mean of the probes around it: a slow
# spell stretches both and cancels. PROBE_REF_S is the probe's time on
# an idle core of the machine that recorded baseline.json, so calibrated
# times read as seconds at that speed. The raw figures are in the
# detail line.
PROBE_EVERY_S = 0.05
PROBE_REF_S = 1.36e-3
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import expbases.cli; "
                 "print(time.perf_counter() - t)")

END_TO_END_UNITS = {"latency_p50_s": "s", "latency_tail_s": "s", "throughput_sps": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def generate(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "small_scenarios":
        return workloads.small_scenarios(rng, os.path.join(ROOT, "scenarios"))
    return getattr(workloads, workload)(rng)


class Probe:
    """A fixed mix of interpreter and numpy work, about PROBE_REF_S long."""

    def __init__(self):
        import numpy as np
        self.np = np
        a = np.random.default_rng(0).standard_normal((64, 64))
        self.matrix = a + a.T
        self.phases = np.linspace(0.0, 1.0, 8000)
        self.once()  # numpy's lazy set-up

    def once(self) -> float:
        started = time.perf_counter()
        total = 0
        for i in range(10000):
            total += i * i
        for _ in range(2):
            self.np.linalg.eigh(self.matrix)
        self.np.exp(1j * self.phases).sum()
        return time.perf_counter() - started

    def __call__(self) -> float:
        # The median of three, so one interrupt does not skew a segment.
        return statistics.median(self.once() for _ in range(3))


def measure_setup(probe: Probe) -> tuple[float, float]:
    """Median import time of expbases.cli in fresh interpreters: (raw, calibrated)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    raw, scaled = [], []
    before = probe()
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        after = probe()
        raw.append(float(done.stdout.strip()))
        scaled.append(raw[-1] * 2.0 * PROBE_REF_S / (before + after))
        before = after
    # The first import also writes bytecode caches; users pay that once.
    return statistics.median(raw[1:]), statistics.median(scaled[1:])


def machine() -> dict:
    import numpy as np
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "cpu": platform.processor() or None}
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    info["blas_threads"] = None
    core = glob.glob(os.path.join(os.path.dirname(np.__file__), "_core", "_multiarray_umath*"))
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        try:
            getter = getattr(ctypes.CDLL(core[0]), symbol)
        except (AttributeError, IndexError, OSError):
            continue
        getter.restype = ctypes.c_int
        info["blas_threads"] = getter()
        break
    return info


def _strip_digest(text: str) -> str:
    # The acceptance suite's filter: drop every line mentioning wall_time_s.
    kept = "\n".join(line for line in text.splitlines() if "wall_time_s" not in line)
    return hashlib.sha256(kept.encode()).hexdigest()


class Runner:
    """Runs rounds of the generated scenarios and checks every report."""

    def __init__(self, scenarios: list[dict], work: str, probe: Probe):
        import expbases.cli
        self.cli = expbases.cli
        self.probe = probe
        self.probes: list[float] = []
        self.jobs = []
        for i, scenario in enumerate(scenarios):
            path = os.path.join(work, "scenarios", f"{i:02d}_{scenario['name']}.json")
            with open(path, "w") as handle:
                json.dump(scenario, handle, indent=1)
            report = os.path.join(work, "reports", f"{i:02d}.json")
            self.jobs.append((scenario, [scenario["command"], "--scenario", path,
                                         "--out", report], report))
        self.reference: list[str | None] = [None] * len(self.jobs)
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer: tracing.Tracer | None = None

    def round(self) -> tuple[list[float], list[float]]:
        """One pass over every scenario; returns raw and calibrated latencies."""
        latencies: list[float] = []
        scaled: list[float] = []
        before = self.probe()
        segment = 0.0
        for i, (scenario, argv, report) in enumerate(self.jobs):
            if self.tracer is not None:
                self.tracer.scenario = i
            error = None
            # A report left from the round before must not pass for this one.
            if os.path.exists(report):
                os.remove(report)
            started = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed scenario
                code, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - started
            latencies.append(elapsed)
            segment += elapsed
            self.attempted += 1
            problem = error or self._check(i, scenario, code, report)
            if problem:
                self.failures.append(f"{scenario['name']}: {problem}")
            if segment >= PROBE_EVERY_S or i == len(self.jobs) - 1:
                after = self.probe()
                self.probes.append(after)
                factor = 2.0 * PROBE_REF_S / (before + after)
                scaled += [x * factor for x in latencies[len(scaled):]]
                before, segment = after, 0.0
        return latencies, scaled

    def _check(self, i, scenario, code, report) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            with open(report) as handle:
                text = handle.read()
            verdicts = json.loads(text)["verdicts"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"no readable report: {type(exc).__name__}: {exc}"
        wrong = {k: verdicts.get(k) for k, v in scenario["expect"].items()
                 if verdicts.get(k) is not v}
        if wrong:
            return f"verdicts {wrong} differ from expect"
        digest = _strip_digest(text)
        if self.reference[i] is None:
            self.reference[i] = digest
        elif digest != self.reference[i]:
            return "report bytes changed between rounds"
        return None

    def digest(self) -> str:
        return hashlib.sha256("".join(d or "-" for d in self.reference).encode()).hexdigest()


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def latency_metrics(latencies: list[float], p: int) -> dict:
    return {"latency_p50_s": statistics.median(latencies),
            "latency_tail_s": percentile(latencies, p),
            "throughput_sps": len(latencies) / sum(latencies)}


def run_untraced(runner: Runner, seconds: float, workload: str, detail: dict) -> dict:
    raw: list[float] = []
    scaled: list[float] = []
    rounds = 0
    while sum(raw) < seconds:
        lat, cal = runner.round()
        raw += lat
        scaled += cal
        rounds += 1
    p = TAIL_PERCENTILE[workload]
    metrics = latency_metrics(scaled, p)
    detail.update(rounds=rounds, samples=len(scaled), tail_percentile=p,
                  tail_samples_beyond=sum(v > metrics["latency_tail_s"] for v in scaled),
                  raw=latency_metrics(raw, p))
    return metrics


def run_traced(runner: Runner, seconds: float, detail: dict, spans_path: str) -> dict:
    tracer = tracing.Tracer()
    untraced = traced = traced_raw = spent = 0.0
    rounds = 0
    # Like run_untraced, stop on raw scenario time: calibrated time runs
    # short of the clock whenever the machine is slower than PROBE_REF_S.
    while spent < seconds:
        raw, scaled = runner.round()
        untraced += sum(scaled)
        spent += sum(raw)
        runner.tracer = tracer
        tracer.install()
        try:
            raw, scaled = runner.round()
        finally:
            tracer.uninstall()
            runner.tracer = None
        traced += sum(scaled)
        traced_raw += sum(raw)
        spent += sum(raw)
        rounds += 1
    n = rounds * len(runner.jobs)
    metrics = tracing.layer_metrics(tracer.spans, n, traced_raw, traced / untraced)
    detail.update(rounds=rounds, traced_scenarios=n,
                  references=tracing.reference_check(tracer.spans))
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w") as handle:
        names = [job[0]["name"] for job in runner.jobs]
        for span in tracer.spans:
            name, start, end, parent, scenario, attrs = span
            handle.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "scenario": names[scenario],
                                     "attrs": attrs}) + "\n")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "expbases", "cli.py")):
        print(f"error: no expbases source under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    probe = Probe()
    setup_raw, setup_s = measure_setup(probe) if not args.trace else (None, None)
    scenarios = generate(args.workload, args.seed)
    mix: dict[str, int] = {}
    for scenario in scenarios:
        mix[scenario["command"]] = mix.get(scenario["command"], 0) + 1

    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch)
    try:
        os.makedirs(os.path.join(work, "scenarios"))
        os.makedirs(os.path.join(work, "reports"))
        runner = Runner(scenarios, work, probe)
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "machine": machine(), "scenarios_per_round": len(scenarios), "mix": mix}
        runner.round()  # warm-up: lazy imports, BLAS start-up, reference digests
        if args.trace:
            spans_path = os.path.join(ROOT, ".perfbench_out",
                                      f"spans-{args.workload}-seed{args.seed}.jsonl")
            values = run_traced(runner, args.seconds, detail, spans_path)
            units = dict(tracing.PER_LAYER)
            detail["spans"] = os.path.relpath(spans_path, ROOT)
        else:
            values = run_untraced(runner, args.seconds, args.workload, detail)
            values["setup_s"] = setup_s
            detail["raw"]["setup_s"] = setup_raw
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    detail["probe_ms"] = {"ref": 1e3 * PROBE_REF_S, "median": 1e3 * statistics.median(runner.probes),
                          "min": 1e3 * min(runner.probes), "max": 1e3 * max(runner.probes)}
    detail.update(attempted=runner.attempted, failed=failed,
                  failed_frac=failed / runner.attempted, report_digest=runner.digest(),
                  failures=runner.failures[:10])
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
