"""Tests of the benchmark itself.  They are not part of the tier-1 suite
(pytest's testpaths is ``tests/``); run them with

    python3 -m pytest -q benchmarks
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

qdof, _ = child.import_qdof()


def op_list(name, seed, rounds=3):
    w = workloads.WORKLOADS[name]
    return [op for r in range(rounds) for op in w.round_ops(seed, r)]


@pytest.fixture(scope="module")
def contexts():
    return {name: w.setup(qdof) for name, w in workloads.WORKLOADS.items()}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_op_list_is_a_pure_function_of_the_seed(name):
    assert op_list(name, 7) == op_list(name, 7)
    assert op_list(name, 7) != op_list(name, 8)
    # the same seed gives the same ops in interpreters with different hashing
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
            f"print(repr([op for r in range(3) for op in "
            f"workloads.WORKLOADS[{name!r}].round_ops(7, r)]))")
    seen = {subprocess.run([sys.executable, "-c", code, str(HERE)],
                           env={**os.environ, "PYTHONHASHSEED": h},
                           capture_output=True, text=True,
                           check=True).stdout for h in ("1", "2")}
    assert seen == {repr(op_list(name, 7)) + "\n"}


def test_every_cli_argv_has_a_recorded_digest():
    recorded = json.loads(workloads.DIGESTS_PATH.read_text())
    assert {workloads.argv_key(a) for a in workloads.cli_argvs()} == set(recorded)


def _first_op(name, ctx):
    w = workloads.WORKLOADS[name]
    op = w.round_ops(0, 0)[0]
    return w, op, w.execute(ctx, w.prepare(ctx, op))


def test_perturbed_outputs_fail_their_checks(contexts):
    w, op, (f_g, big_f) = _first_op("relation", contexts["relation"])
    assert w.check(contexts["relation"], op, (f_g, big_f)) is None
    assert w.check(contexts["relation"], op, (f_g + 1e-3, big_f)) is not None

    w, op, value = _first_op("sf-bound", contexts["sf-bound"])
    assert w.check(contexts["sf-bound"], op, value) is None
    over = 1.0 + (op[0] - 1) / 2 + 1e-3
    assert w.check(contexts["sf-bound"], op, over) is not None

    w, op, (rc, stdout) = _first_op("cli", contexts["cli"])
    assert w.check(contexts["cli"], op, (rc, stdout)) is None
    flipped = bytes([stdout[0] ^ 1]) + stdout[1:]
    assert w.check(contexts["cli"], op, (rc, flipped)) is not None
    assert w.check(contexts["cli"], op, (rc, stdout + b" ")) is not None
    assert w.check(contexts["cli"], op, (2, stdout)) is not None


def test_a_perturbed_output_is_counted_as_failed(contexts, monkeypatch):
    w = workloads.Relation
    execute = w.execute
    calls = []

    def perturb_first(ctx, prepared):
        f_g, big_f = execute(ctx, prepared)
        calls.append(1)
        return (f_g + 1e-3, big_f) if len(calls) == 1 else (f_g, big_f)

    monkeypatch.setattr(w, "execute", staticmethod(perturb_first))
    phase = child.run_phase(w, contexts["relation"], 0, 0, max_rounds=1)
    assert len(phase["latencies"]) == len(w.round_ops(0, 0))
    assert len(phase["failures"]) == 1
    assert "residual" in phase["failures"][0]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_matches_plain_run_and_reaches_its_layers(name, contexts):
    w = workloads.WORKLOADS[name]
    plain = child.run_phase(w, contexts[name], 3, 0, max_rounds=1)
    with Tracer() as tracer:
        traced = child.run_phase(w, contexts[name], 3, 0, tracer, max_rounds=1)
    assert plain["failures"] == traced["failures"] == []
    assert [repr(o) for o in plain["outputs"]] == [repr(o) for o in traced["outputs"]]
    layers = tracer.layer_metrics(traced["op_sizes"],
                                  child.op_scales(traced["chunk_times"]))
    assert [n for n in workloads.REACHES[name] if not layers[f"{n}.calls"] > 0] == []
    # uninstall restored every binding, default arguments included
    for mod, fname, _kind in TARGETS:
        assert not hasattr(getattr(getattr(qdof, mod), fname), "__wrapped__")
    assert qdof.measurement.chsh.__defaults__[-1] is qdof.circuits.li_circuit


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "relation",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
