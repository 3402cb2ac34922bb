"""The qdof benchmark: one workload, one seed, one closed-loop run.

    python3 benchmarks/run.py --workload relation|sf-bound|cli --seed N
        --seconds T --trace 0|1

Run from the root of a checkout.  Every measurement happens in a fresh
interpreter (benchmarks/child.py) with the BLAS/OpenMP thread counts pinned
to 1, so `setup_s` includes the real `import qdof`.  Set-up is repeated in
SETUP_SAMPLES interpreters and its median reported; the last of them goes on
to the timed phase.

The timed phase is a sequence of rounds with identical op mixes.  On a shared
machine the speed of the whole machine drifts by up to about 1.5x for
seconds to minutes at a time.  The child therefore runs a fixed calibration
chunk after every op (see child.py), and every reported time is rescaled to
the chunk's nominal speed: an op's time is multiplied by CHUNK_NOMINAL_S /
(the chunk time around it), a set-up time by the same ratio from chunks run
right after it.  A slower program is slower at any machine speed, so a
regression still shows; the raw wall-clock figures are printed beside the
metrics.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` the same process runs the timed phase once plain and once
under the outside-in tracer (benchmarks/tracer.py), checks that both gave
identical outputs and that every layer the workload must reach was called,
reports the per-layer metrics, and writes the spans to
``.bench_out/spans-<workload>-seed<N>.jsonl``.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Without a ``src/qdof`` package next
to this directory the run exits with status 1 and prints no result.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import op_scales
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
DEADLINE_S = 170.0
TAIL_BEYOND = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ChildFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def run_child(mode, args, deadline, spans=None):
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if spans:
        cmd += ["--spans", str(spans)]
    cmd += ["--launched", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child exceeded the run deadline") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited with {proc.returncode}:\n"
                          + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    digest = hashlib.sha256()
    for path in sorted((SRC / "qdof").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha or None, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "loadavg_1m": os.getloadavg()[0],
            "threads_pinned": list(THREAD_VARS)}


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile that
    still has TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def rescaled(phase):
    """(ops per second, op latencies, median drift) at the chunk's nominal
    speed; ops per second is the median over rounds of ops / op time."""
    scales = op_scales(phase["chunk_times"])
    lat = [x * k for x, k in zip(phase["latencies"], scales)]
    size = phase["round_size"]
    rates = [size / sum(lat[i:i + size]) for i in range(0, len(lat), size)]
    return (statistics.median(rates), lat,
            statistics.median(1.0 / k for k in scales))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "qdof" / "__init__.py").is_file():
        sys.exit(f"error: no qdof package at {SRC / 'qdof'}; run the benchmark "
                 "from the root of a qdof checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    prov = provenance()

    spans = None
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        setups = [run_child("setup", args, deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        measured = run_child("measure", args, deadline, spans)
    except ChildFailed as exc:
        sys.exit(f"error: {exc}")
    setups.append(measured)
    prov.update(measured["versions"])

    plain = measured["plain"]
    raw = plain["latencies"]
    attempted = len(raw)
    failures = list(plain["failures"])
    plain_rate, lat, drift = rescaled(plain)
    tail_value, tail_pct, beyond = tail(lat)
    rounds = attempted // plain["round_size"]
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ops_per_s": plain_rate,
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_value,
        "fail_rate": len(failures) / attempted,
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters; raw "
                   f"{statistics.median(s['setup_raw_s'] for s in setups):.4f}",
        "ops_per_s": f"median of {rounds} rounds; raw {len(raw) / sum(raw):.4f} "
                     f"at drift {drift:.3f}",
        "op_p50_ms": f"{attempted} ops; raw {1e3 * statistics.median(raw):.4f}",
        "op_tail_ms": f"p{tail_pct:.2f}, {beyond} ops beyond; "
                      f"raw {1e3 * tail(raw)[0]:.4f}",
        "fail_rate": f"{len(failures)} of {attempted} ops",
        "peak_rss_mb": "ru_maxrss of the measuring interpreter",
    }
    correct = True
    if args.trace:
        traced = measured["traced"]
        attempted += len(traced["latencies"])
        failures += traced["failures"]
        layers = dict(traced["layers"])
        layers["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        layers["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in setups)
        layers["tracing.overhead_frac"] = (
            plain_rate / rescaled(traced)[0] - 1.0)
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        if traced["mismatches"]:
            correct = False
            print(f"# traced run changed {traced['mismatches']} of "
                  f"{traced['compared']} outputs", file=sys.stderr)
        if traced["missing"]:
            correct = False
            print("# traced run recorded no call to: "
                  + ", ".join(traced["missing"]), file=sys.stderr)
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    print(f"# workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    if args.trace:
        print(f"# traced: {len(traced['latencies'])} ops; outputs identical to the "
              f"plain run on {traced['compared'] - traced['mismatches']} of "
              f"{traced['compared']}; spans in {spans.relative_to(ROOT)}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["fail_rate"] = "fraction"
    for name, value in values.items():
        print(f"{name:<12} {value:>12.4f} {units[name]:<9} ({notes[name]})")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:<48} {m['value']:>12.4f} {m['unit']}")
    for problem in failures[:5]:
        print(f"# failed: {problem}", file=sys.stderr)
    if failures:
        correct = False
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
