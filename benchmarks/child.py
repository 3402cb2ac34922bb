"""One fresh interpreter of a benchmark run; started by run.py, not by hand.

    python3 benchmarks/child.py --mode setup|measure --workload W --seed S
        --seconds T --trace 0|1 --launched <time.monotonic() at launch>

Imports qdof from the checkout's ``src/``, builds the workload's inputs, and
in ``measure`` mode runs the closed loop: one client issues the next op only
after the previous one returned.  Prints one JSON line with the raw
measurements; run.py turns them into metrics.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_qdof():
    """Import qdof from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import qdof
    import_s = time.perf_counter() - t0
    if Path(qdof.__file__).resolve().parent != SRC / "qdof":
        raise SystemExit(f"qdof imported from {qdof.__file__}, not {SRC}")
    return qdof, import_s


# The speed of a shared machine drifts by up to about 1.5x for seconds to
# minutes at a time, as other tenants load it.  After every op the loop runs
# this fixed chunk of interpreter and small-matrix work, which never touches
# qdof, twice, and times the second run, whose caches are warm whatever the
# op did; that time, taken at the same moment as the op, measures the drift.
# CHUNK_NOMINAL_S is the chunk's median warm time on an unloaded 2.1 GHz Xeon
# (the machine of the first baseline).  `op_scales` turns the chunk times
# into one correction factor per op; each set-up time gets the factor of
# SETUP_CHUNKS chunks run right after it.
CHUNK_NOMINAL_S = 0.00055
SETUP_CHUNKS = 20


def calibration_chunk(np, matrix):
    t0 = time.perf_counter()
    table = {}
    for i in range(1800):
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0.0) + i
    sorted(table)
    for _ in range(15):
        np.linalg.svd(matrix)
    return time.perf_counter() - t0


def op_scales(chunk_times):
    """Factor CHUNK_NOMINAL_S / local chunk time for every op.

    The local chunk time of op i is the median of the chunks run right
    before it, right after it, and after the next op, so that one chunk
    caught by an interrupt does not skew an op.
    """
    n = len(chunk_times)
    return [CHUNK_NOMINAL_S / statistics.median(chunk_times[max(i - 1, 0):
                                                           min(i + 2, n)])
            for i in range(n)]


def run_phase(workload, ctx, seed, seconds, tracer=None, max_rounds=None):
    """Closed loop over whole rounds until `seconds` have passed (or, for the
    benchmark's own tests, until `max_rounds` rounds have run).

    A round is started only while time remains and is always finished, so
    every round has the workload's full mix.  Inputs are prepared outside the
    timed call; outputs are checked after it, and the calibration chunk runs
    after every op.  Rounds hold equally many ops, so op i belongs to round
    i // len(round).
    """
    import numpy as np  # after qdof, so that setup.import_s includes it
    matrix = np.eye(4) + 0.1
    clock = time.perf_counter
    latencies, chunk_times, outputs, op_sizes, failures = [], [], [], [], []
    start = clock()
    r = 0
    while (r < max_rounds if max_rounds is not None
           else clock() - start < seconds):
        for op in workload.round_ops(seed, r):
            prepared = workload.prepare(ctx, op)
            if tracer is not None:
                tracer.op = len(op_sizes)
            op_sizes.append(workload.op_n(op))
            t0 = clock()
            try:
                output = workload.execute(ctx, prepared)
            except Exception as exc:  # an op that raises is a failed op
                output = exc
            latencies.append(clock() - t0)
            outputs.append(output)
            if isinstance(output, Exception):
                problem = f"{op!r}: {type(output).__name__}: {output}"
            else:
                try:
                    problem = workload.check(ctx, op, output)
                except Exception as exc:  # a malformed output fails its check
                    problem = f"{op!r}: check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                failures.append(problem)
            calibration_chunk(np, matrix)  # refills the caches the op evicted
            chunk_times.append(calibration_chunk(np, matrix))
        r += 1
    return {"latencies": latencies, "chunk_times": chunk_times,
            "round_size": len(workload.round_ops(seed, 0)),
            "outputs": outputs, "op_sizes": op_sizes, "failures": failures}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["setup", "measure"], required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    qdof, import_s = import_qdof()
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    ctx = workload.setup(qdof)
    workload.prepare(ctx, workload.round_ops(args.seed, 0)[0])  # first op
    inputs_s = time.perf_counter() - t0
    setup_s = time.monotonic() - args.launched
    import numpy
    matrix = numpy.eye(4) + 0.1
    scale = CHUNK_NOMINAL_S / statistics.median(
        calibration_chunk(numpy, matrix) for _ in range(SETUP_CHUNKS))
    result = {"setup_s": setup_s * scale, "import_s": import_s * scale,
              "inputs_s": inputs_s * scale, "setup_raw_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    import resource

    import scipy
    plain = run_phase(workload, ctx, args.seed, args.seconds)
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    keep = ("latencies", "chunk_times", "round_size", "failures")
    result["plain"] = {k: plain[k] for k in keep}
    if args.trace:
        from tracer import Tracer
        with Tracer() as tracer:
            traced = run_phase(workload, ctx, args.seed, args.seconds, tracer)
        layers = tracer.layer_metrics(traced["op_sizes"],
                                      op_scales(traced["chunk_times"]))
        layers["cli.output_bytes"] = (
            sum(len(o[1]) for o in traced["outputs"] if isinstance(o, tuple))
            / len(traced["outputs"])
            if workload is workloads.Cli else 0.0)
        pairs = list(zip(plain["outputs"], traced["outputs"]))
        missing = [name for name in workloads.REACHES[args.workload]
                   if not layers[f"{name}.calls"] > 0]
        result["traced"] = {
            **{k: traced[k] for k in keep},
            "layers": layers,
            "compared": len(pairs),
            "mismatches": sum(repr(a) != repr(b) for a, b in pairs),
            "missing": missing,
        }
        if args.spans:
            tracer.write(args.spans)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
