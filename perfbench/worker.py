"""One measured process: set up a workload, optionally trace it, run it once.

Started by run.py from the root of a checkout, with ``PYTHONPATH`` pointing
at its ``src``. Prints one JSON line: the moment this program started and
the moment set-up finished (``time.monotonic``, which the parent compares
with the moment it launched this process), the measurements and the gate
counts. ``--setup-only`` stops after set-up. A traced run also writes its
spans to ``.bench_out/spans-<workload>.npz``.

Times are in reference seconds (see ``metronome.py``): the host's speed is
sampled throughout set-up and, in an untraced run, throughout the run, and
the raw durations are reported next to the rescaled ones. A traced run's
spans are raw, so that they add up.
"""

import time

# the interpreter's own start, up to here, is timed by the parent
STARTED = time.monotonic()

from metronome import SETUP_PERIOD_S, TABLE_MB, Metronome  # noqa: E402  (builds the table)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # set-up proper starts here; the calibration table is already resident
    setup_clock = Metronome(SETUP_PERIOD_S)
    setup_clock.start()
    import numpy
    import setvote

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(setvote.__file__).resolve().parents:
        print(f"setvote imported from {setvote.__file__}, not from {src}", file=sys.stderr)
        return 3

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    tracer = None
    if args.trace:
        from layers import ROOT, instrument
        from spans import Tracer

        tracer = Tracer()
        instrument(tracer)
    ready_at = time.perf_counter()
    ready = time.monotonic()
    setup_clock.stop()
    window = ([setup_clock.end[0]], [ready_at])
    setup = {
        "started": STARTED,
        "ready": ready,
        # launch to STARTED is counted at this speed by the parent
        "start_speed": setup_clock.start_speed(),
        "after_start_s": float(setup_clock.scale(*window)[0]),
        "raw_after_start_s": float(setup_clock.scale(*window, rescale=False)[0]),
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    metronome = None
    if tracer is None:
        metronome = Metronome()
        metronome.start()
        result = workload.run()
        metronome.stop()
    else:
        with tracer.span(ROOT):
            result = workload.run()
    # the calibration table is resident from the process's start to its end
    peak_mb = _peak_rss_mb() - TABLE_MB
    if metronome is None:
        wall = raw_wall = result.end - result.start
        units = [e - s for s, e in zip(result.unit_start, result.unit_end)]
    else:
        wall = float(metronome.scale([result.start], [result.end])[0])
        raw_wall = float(metronome.scale([result.start], [result.end], rescale=False)[0])
        units = metronome.scale(result.unit_start, result.unit_end).tolist()
    out = {
        **setup,
        "wall_s": wall,
        "samples": units,
        "raw_wall_s": raw_wall,
        "slices": metronome.slices if metronome else 0,
        "calibration": Metronome.settings(),
        "ops": result.ops,
        "failed": result.failed,
        "failures": result.failures,
        "peak_rss_mb": peak_mb,
        "work": workload.work,
        "uses_seed": workload.uses_seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        from layers import LAYERS, layer_metrics
        from setvote.verify import full_suite

        summary = tracer.summary()
        metrics = layer_metrics(
            summary,
            tracer.counts,
            [a.value for a in full_suite()],
            result.payload_bytes,
        )
        traced_wall = metrics["trace.wall_s"]
        accounted = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        if abs(accounted - traced_wall) > 1e-6 * max(1.0, traced_wall):
            print(f"self times add to {accounted}, traced wall is {traced_wall}", file=sys.stderr)
            return 4
        out["layers"] = metrics
        out["run_id"] = tracer.run_id
        out_dir = Path.cwd() / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}.npz")
    print(json.dumps(out))
    return 0


def _peak_rss_mb() -> float:
    """This process's peak resident memory since it started its program.

    ``ru_maxrss`` on Linux starts from the parent's resident size at fork,
    so the high-water mark of the process's own address space is read
    instead where the system gives it.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


if __name__ == "__main__":
    sys.exit(main())
