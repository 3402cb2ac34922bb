"""Mutation catalogue: each entry breaks one check, and the tests it names
must catch the break.

Run from anywhere, with numpy, scipy, pytest and hypothesis installed:

    python3 tests/mutants.py

The runner copies `src/`, `tests/`, `README.md` and `pyproject.toml` (for
pytest's settings) into a temporary directory.  It first requires every
named test to pass there unmutated.  Then, one entry at a time, it replaces
the entry's old text, which must occur exactly once in its file, by the new
text, and requires each named test to fail; the file is restored before the
next entry.  An old text found zero or several times fails the run before
any test runs, so a refactor of the code a mutant targets must update its
entry here.  Exit status 0 means every mutant was caught.

A node id names one test, or a parametrized test function, which then
counts as failing when any of its cases fails.  The standard library alone
runs this file; pytest does not collect it, as its name is not `test_*.py`.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "README.md", "pyproject.toml")

# (file, old text, new text, node ids that must fail)
MUTANTS = [
    # fidelity._stack: a nan or an infinity is refused as non-finite ...
    ("src/qdof/fidelity.py",
     '''        if not np.isfinite(largest).all():
            raise ValueError("matrix has non-finite entries")
''', "",
     ["tests/test_fidelity.py::test_non_finite_entries_are_refused"]),
    # ... which the old zero-trace test, true for no nan, let through
    ("src/qdof/fidelity.py",
     "    if not all((np.abs(tr) > 1e-12 * largest).tolist()):",
     "    if any((np.abs(tr) <= 1e-12 * largest).tolist()):",
     ["tests/test_fidelity.py::test_non_finite_entries_are_refused"]),
    # states.mix keeps the one DoF layout that its states declare ...
    ("src/qdof/states.py",
     "    specs = next((dm.dof_specs for _, dm in states if dm.dof_specs), ())",
     "    specs = states[0][1].dof_specs",
     ["tests/test_states.py::test_mix_identity_and_diagonal"]),
    # ... and refuses two different ones
    ("src/qdof/states.py",
     "        if dm.dof_specs and dm.dof_specs != specs:",
     "        if False:",
     ["tests/test_input_checks.py::"
      "test_input_check_raises_its_type_and_message[mixed layouts]"]),
    # hardy.SampleSet refuses an empty sample
    ("src/qdof/hardy.py",
     "        if values.size == 0:",
     "        if False:",
     ["tests/test_input_checks.py::"
      "test_input_check_raises_its_type_and_message[empty sample set]"]),
    # the coherent DoF rule's arguments carry eta: fixed to BOSON, fermion
    # states are reduced by the boson rule
    ("src/qdof/trace.py",
     "(_slot_images, (sub.region, dm.eta, sub.dof_index))",
     "(_slot_images, (sub.region, 1, sub.dof_index))",
     ["tests/test_trace.py::test_image_tables_are_kept_per_rule",
      "tests/test_trace.py::test_pauli_excluded_image_is_left_out"]),
    # the qubit layout names the ket it cannot place
    ("src/qdof/trace.py",
     '''        if ket not in o:
            raise ValueError(f"{ket!r} has no place in the qubit layout")
''', "",
     ["tests/test_trace.py::"
      "test_a_value_the_spec_lacks_raises_only_when_its_tuple_is_kept"]),
    # a wrong fermion sign: removing a slot at an odd position ...
    ("src/qdof/trace.py",
     "sign = 1 if (eta == DISTINGUISHABLE or i % 2 == 0) else eta",
     "sign = 1",
     ["tests/test_trace.py::test_image_tables_are_kept_per_rule"]),
    # ... and sorting a fermion tuple
    ("src/qdof/states.py",
     "return sorted_kets, -1 if inv % 2 else 1",
     "return sorted_kets, 1",
     ["tests/test_circuits.py::test_fermion_zero_phase_coincidence_amplitude",
      "tests/test_acceptance.py::test_criterion_01_fermion_tables"]),
    # the hermiticity test's bound is inclusive, as np.allclose's
    ("src/qdof/states.py",
     "(np.abs(rho - adj) <= 1e-7",
     "(np.abs(rho - adj) < 1e-7",
     ["tests/test_measures.py::"
      "test_hermitian_test_at_and_one_ulp_either_side_of_the_bound"]),
    # relation_check records a round-off residual as 0
    ("src/qdof/fidelity.py",
     "        if abs(residual) < 1e-12:",
     "        if False:",
     ["tests/test_fidelity.py::test_relation_residuals_are_exactly_zero"]),
    # every p = 0 pair of the noise family is I/4
    ("src/qdof/fidelity.py",
     "noise = np.eye(4, dtype=complex) / D ** 2",
     "noise = 1.01 * np.eye(4, dtype=complex) / D ** 2",
     ["tests/test_fidelity.py::test_each_point_grid_is_the_grid_of_its_state",
      "tests/test_fidelity.py::"
      "test_relation_records_are_the_per_point_records"]),
    # the magic basis is scaled by sqrt(2), so r + r^T is 4 Re rho_M
    ("src/qdof/fidelity.py",
     "w[:, 0]) / (4.0 * tr)",
     "w[:, 0]) / (2.0 * tr)",
     ["tests/test_fidelity.py::test_singlet_fraction_endpoints",
      "tests/test_fidelity.py::"
      "test_a_small_scale_is_not_a_zero_trace[singlet_fraction]"]),
    # a stack that meets a zero diagonal entry is reduced row by row
    ("src/qdof/fidelity.py",
     "        except StackError:",
     "        except ImportError:",
     ["tests/test_trace_properties.py::"
      "test_a_stack_gives_each_matrix_its_bytes_alone"]),
    # the distinguishable ceiling 1 + (n - 1)/D, in the bound check ...
    ("src/qdof/fidelity.py",
     "    bound = 1.0 + (n - 1) / D",
     "    bound = 0.99 * (1.0 + (n - 1) / D)",
     ["tests/test_fidelity.py::test_distinguishable_bound_never_exceeded",
      "tests/test_relation_digests.py::"
      "test_relation_record_bytes[sf-bound --n 2]"]),
    # ... and in the layout's fidelity parameters
    ("src/qdof/fidelity.py",
     "return FidelityParams(1.0, 1.0 + (layout.n - 1) / D)",
     "return FidelityParams(1.0, 0.99 * (1.0 + (layout.n - 1) / D))",
     ["tests/test_fidelity.py::"
      "test_star_hamiltonian_certifies_the_distinguishable_ceiling"]),
    # the one-qubit tangle is 4 det(rho_A)
    ("src/qdof/measures.py",
     "    t = 4.0 * np.linalg.det(rho_a).real",
     "    t = 3.6 * np.linalg.det(rho_a).real",
     ["tests/test_acceptance.py::test_criterion_06_distinguishable_ckw",
      "tests/test_fidelity.py::test_w_state_reaches_the_monogamy_bound"]),
]


def _copy(work):
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, work / name, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", ".pytest_cache"))
        else:
            shutil.copy2(source, work / name)


def _failed(work, nodes):
    """The named nodes that fail (or error) in `work`, None if pytest did
    not run them (a collection error, a node not found), and its output."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         *nodes], cwd=work, env=env, capture_output=True, text=True)
    reported = [line.split(" ", 1)[1].split(" - ", 1)[0]
                for line in run.stdout.splitlines()
                if line.startswith(("FAILED ", "ERROR "))]
    failed = [node for node in nodes
              if any(r == node or r.startswith(node + "[") for r in reported)]
    return (failed if run.returncode in (0, 1) else None,
            run.stdout + run.stderr)


def main():
    miscounted = []
    for path, old, _, _ in MUTANTS:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            miscounted.append(f"{path}: old text found {count} times: {old!r}")
    if miscounted:
        print("\n".join(miscounted))
        return 1

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _copy(work)
        nodes = list(dict.fromkeys(n for *_, ns in MUTANTS for n in ns))
        failed, output = _failed(work, nodes)
        if failed != []:
            print(output)
            print("unmutated, the named tests do not all pass")
            return 1

        survivors = 0
        for path, old, new, named in MUTANTS:
            target = work / path
            original = target.read_text()
            target.write_text(original.replace(old, new))
            try:
                failed, output = _failed(work, named)
            finally:
                target.write_text(original)
            alive = named if failed is None else [
                n for n in named if n not in failed]
            print(f"{'SURVIVED' if alive else 'killed  '} {path}: {old.strip()!r}")
            if failed is None:
                print(output)
            for node in alive:
                print(f"    not failed: {node}")
            survivors += bool(alive)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
