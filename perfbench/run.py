"""setvote benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload uncovered-m4n3-each --seed 1 --seconds 10 --trace 0

Each repetition is a fresh ``python3 perfbench/worker.py`` process running
the workload once at its full size, so every repetition pays the cold start a
command-line user pays. Repetitions start until ``--seconds`` have passed,
and at least two run. Set-up is also timed in groups of set-up-only
processes, one group before each repetition and one after the last.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians over
repetitions (wall time, peak memory) or over processes (set-up time), and
quantiles of each unit's best latency over the repetitions. Times are in
reference seconds: each worker samples the host's speed with a fixed
calibration slice throughout set-up and the run and rescales its durations
to a host of fixed speed (``metronome.py``); the raw medians are in the
stamp. ``--trace 1`` runs the workload once traced, then untraced
repetitions, and reports the per-layer metrics of BENCHMARK.json plus the
tracing overhead.

The last line of standard output is the result object; the line before it is
a stamp describing the code, machine and work size. Both are also written to
``.bench_out/``, with the traced run's spans. Exits non-zero, printing no
result, when the program cannot be found or a process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

PROBE_GROUP = 2
MIN_REPETITIONS = 2
# every process must end before the run's hard limit of 180 s
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    started = time.monotonic()
    # turn termination into an exception, so subprocess.run stops the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; one of {names}")
        if args.seconds < 1:
            raise BenchError("--seconds must be at least 1")
        if not (root / "src" / "setvote" / "__init__.py").is_file():
            raise BenchError(f"no setvote sources under {root / 'src'}")
        bench = Bench(root, args, started)
        stamp, result = bench.measure(spec)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"stamp": stamp, "result": result}
    (out_dir / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print("stamp " + json.dumps(stamp))
    print(json.dumps(result))
    return 0


class Bench:
    def __init__(self, root: Path, args, started: float):
        self.root = root
        self.args = args
        self.started = started
        self.env = dict(os.environ)
        # the default budget applies; a stray setting must not fail a sweep
        self.removed_budget = self.env.pop("SETVOTE_BUDGET", None)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONHASHSEED"] = "0"
        # numpy's BLAS would start a thread per CPU at import; setvote's
        # arrays are tiny, and idle pool threads make set-up time wander
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def worker(self, *, trace: int = 0, setup_only: bool = False) -> dict:
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--trace", str(trace),
        ]
        if setup_only:
            cmd.append("--setup-only")
        remaining = DEADLINE_S - self.elapsed()
        if remaining <= 0:
            raise BenchError("out of time before the run finished")
        launched = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s limit") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited with code {proc.returncode}")
        out = json.loads(lines[-1])
        before_start = out["started"] - launched
        out["setup_s"] = before_start * out["start_speed"] + out["after_start_s"]
        out["raw_setup_s"] = before_start + out["raw_after_start_s"]
        return out

    def repetitions(self, at_least: int, probes: list[dict] | None) -> list[dict]:
        """Untraced repetitions until the run's seconds have passed.

        With ``probes``, a group of set-up-only processes runs before each
        repetition and after the last, so that set-up is sampled across the
        whole run rather than in one stretch of it.
        """
        reps = []
        while len(reps) < at_least or self.elapsed() < self.args.seconds:
            if probes is not None:
                probes += [self.worker(setup_only=True) for _ in range(PROBE_GROUP)]
            reps.append(self.worker())
        if probes is not None:
            probes += [self.worker(setup_only=True) for _ in range(PROBE_GROUP)]
        return reps

    def measure(self, spec) -> tuple[dict, dict]:
        traced = self.worker(trace=1) if self.args.trace else None
        probes = None if traced else []
        # one untraced repetition gives the tracing overhead; end-to-end
        # medians take at least two
        reps = self.repetitions(1 if traced else MIN_REPETITIONS, probes)
        probes = probes or []
        if traced:
            metrics = dict(traced["layers"])
            untraced = statistics.median(r["raw_wall_s"] for r in reps)
            metrics["trace.overhead_s"] = traced["layers"]["trace.wall_s"] - untraced
            wanted = spec["per_layer"]
        else:
            # every repetition issues the same units in the same order; a
            # unit's best time over them leaves out the host's brief stalls,
            # which otherwise make up most of the latency tail
            best = [min(times) for times in zip(*(r["samples"] for r in reps))]
            metrics = {
                "setup_s": statistics.median(r["setup_s"] for r in probes + reps),
                "wall_s": statistics.median(r["wall_s"] for r in reps),
                "unit_p50_ms": 1000 * _quantile(best, 0.5),
                "unit_p95_ms": 1000 * _quantile(best, 0.95),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            }
            wanted = spec["end_to_end"]
        missing = {m["name"] for m in wanted} ^ set(metrics)
        if missing:
            raise BenchError(f"metrics do not match BENCHMARK.json: {sorted(missing)}")
        gated = reps + ([traced] if traced else [])
        attempted = sum(r["ops"] for r in gated)
        failed = sum(r["failed"] for r in gated)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
            },
        }
        stamp = self.stamp(reps, traced, samples_per_rep=len(reps[0]["samples"]))
        stamp["gate"] = {
            "ops": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "first_failures": [f for r in gated for f in r["failures"]][:5],
        }
        stamp["setup_samples"] = len(probes) + len(reps)
        stamp["raw_setup_s"] = statistics.median(r["raw_setup_s"] for r in probes + reps)
        stamp["raw_wall_s"] = statistics.median(r["raw_wall_s"] for r in reps)
        stamp["calibration"] = dict(
            reps[0]["calibration"], slices_per_rep=[r["slices"] for r in reps]
        )
        return stamp, result

    def stamp(self, reps, traced, samples_per_rep: int) -> dict:
        first = reps[0]
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seed_used": first["uses_seed"],
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "run_id": traced["run_id"] if traced else None,
            "commit": _commit(self.root),
            "src_sha256": _source_digest(self.root / "src"),
            "python": first["python"],
            "numpy": first["numpy"],
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "platform": platform.platform(),
            "work": first["work"],
            "repetitions": len(reps),
            "unit_samples": samples_per_rep * len(reps),
            "removed_SETVOTE_BUDGET": self.removed_budget,
        }


def _quantile(samples: list[float], q: float) -> float:
    """The q-quantile of unit latencies (linear interpolation)."""
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _commit(root: Path) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


if __name__ == "__main__":
    sys.exit(main())
