import json
import math

import pytest

from qdof.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_tables_subcommand(capsys):
    code, out = run(capsys, "tables", "--kind", "fermion",
                    "--phases", "10,20,30,40")
    assert code == 0
    rec = json.loads(out)
    assert rec["schema_version"] == 1
    assert rec["config"]["kind"] == "fermion"
    phi = math.radians((20 - 10 - 30 + 40) / 2)
    assert rec["results"]["phi"] == pytest.approx(phi, abs=1e-9)
    ext = rec["results"]["external_external"]
    assert ext["probs"][0][0] == pytest.approx(0.25 * math.cos(phi) ** 2,
                                               abs=1e-9)


def test_chsh_distinguishable_no_violation(capsys):
    code, out = run(capsys, "chsh", "--kind", "distinguishable")
    rec = json.loads(out)
    assert code == 0
    assert rec["results"]["chsh"] == pytest.approx(0.0, abs=1e-9)
    assert rec["results"]["verdict"] == "no violation"


def test_chsh_boson_maximal(capsys):
    _, out = run(capsys, "chsh", "--kind", "boson")
    rec = json.loads(out)
    assert rec["results"]["chsh"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)
    assert rec["results"]["verdict"] == "maximal violation"


def test_hardy_qmax(capsys):
    _, out = run(capsys, "hardy", "qmax")
    rec = json.loads(out)
    assert rec["results"]["q_max"] == pytest.approx(0.0901699, abs=1e-6)


def test_byte_identical_reruns(capsys):
    args = ("hardy", "estimate", "--theta", "51.827", "--phi", "51.827",
            "--seed", "42")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    rec = json.loads(first)
    assert rec["config"]["seed"] == 42
    assert rec["results"]["decision"] == "nmes"


def test_unknown_subcommand_exits_2(capsys):
    _exit_2_with_one_line(capsys, "frobnicate")


def test_bad_value_exits_2(capsys):
    assert main(["attack", "--theta", "51.8", "--phi", "51.8",
                 "--alpha", "1.5"]) == 2


def _exit_2_with_one_line(capsys, *argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_hardy_estimate_single_run_exits_2(capsys):
    _exit_2_with_one_line(capsys, "hardy", "estimate", "--runs", "1")


def test_chsh_requires_four_settings(capsys):
    _exit_2_with_one_line(capsys, "chsh", "--kind", "boson",
                          "--settings", "1,2")
    _exit_2_with_one_line(capsys, "chsh", "--kind", "boson",
                          "--settings", "0,180,45,-45,10")


@pytest.mark.parametrize("argv", [
    ("hardy", "sample", "--runs", "0"),
    ("hardy", "estimate", "--shots", "0"),
    ("sf-bound", "--samples", "0"),
    ("sf-bound", "--samples", "-3"),
    ("fidelity-relation", "--kind", "distinguishable", "--points", "0"),
    ("hardy", "probs", "--theta", "nan"),
    ("hardy", "sample", "--phi", "inf"),
    ("attack", "--theta", "nan"),
    ("qpq", "--theta=-inf"),
    ("tables", "--kind", "boson", "--phases", "nan,0,0,0"),
    ("chsh", "--kind", "boson", "--settings", "nan,0,0,0"),
    ("trace", "--drop", "s1"),
    ("trace", "--drop", "s1:1,s2"),
    ("chsh", "--kind", "boson", "--format", "csv"),
    ("hardy", "probs", "--format", "text"),
    ("hardy", "qmax", "--format", "csv"),
    ("tables", "--kind", "boson", "--format", "csv"),
    ("trace", "--format", "text"),
    ("signaling", "--n", "21", "--trials", "100"),
    ("trace", "--drop", "s9:1"),
    ("trace", "--drop", "s1:1,s1:1"),
    ("trace", "--drop", "s1:3,s2:1"),
])
def test_empty_samples_nonfinite_angles_and_bad_drop_exit_2(capsys, argv):
    _exit_2_with_one_line(capsys, *argv)


@pytest.mark.parametrize("drop, message", [
    ("s9:1", "error: --drop: no region 's9'; the regions are s1, s2\n"),
    ("s1:1,s1:1", "error: --drop names DoF 1 of region 's1' twice\n"),
    ("s2:02,s1:1,s2:2", "error: --drop names DoF 2 of region 's2' twice\n"),
    ("s1:3,s2:1",
     "error: --drop: region 's1' has no DoF 3; it carries DoFs 1, 2\n"),
])
def test_trace_drop_names_the_bad_item(capsys, drop, message):
    assert main(["trace", "--drop", drop]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("argv", [
    (),
    ("hardy",),
    ("tables", "--kind", "photon"),
    ("tables", "--phases", "0,0,0,0"),
    ("fidelity-relation", "--n", "2"),
    ("sf-bound", "--n", "two"),
    # flags a subcommand would not read
    ("tables", "--kind", "boson", "--seed", "1"),
    ("hardy", "qmax", "--theta", "5"),
    ("hardy", "probs", "--runs", "3"),
    ("hardy", "sample", "--alpha", "0.1"),
])
def test_parse_errors_and_unread_flags_exit_2(capsys, argv):
    _exit_2_with_one_line(capsys, *argv)


def test_help_exits_0_and_lists_only_the_modes_flags(capsys):
    assert main(["hardy", "sample", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--runs" in out and "--allow-boundary" in out
    assert "--alpha" not in out


def test_format_is_rejected_before_any_computation(monkeypatch, capsys):
    from qdof import fidelity

    def never(*args, **kwargs):
        raise AssertionError("sf-bound computed before rejecting --format")

    monkeypatch.setattr(fidelity, "sf_upper_bound_check", never)
    _exit_2_with_one_line(capsys, "sf-bound", "--n", "3", "--samples", "100",
                          "--format", "csv")


def test_memory_error_exits_2(monkeypatch, capsys):
    from qdof import fidelity

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 256. GiB for an array")

    monkeypatch.setattr(fidelity, "sf_upper_bound_check", exhausted)
    _exit_2_with_one_line(capsys, "sf-bound", "--n", "6", "--samples", "1")


@pytest.mark.parametrize("argv", [
    ("fidelity-relation", "--kind", "indistinguishable", "--n", "7"),
    ("fidelity-relation", "--kind", "distinguishable", "--n", "7"),
    ("sf-bound", "--n", "7", "--samples", "1"),
], ids=["relation-indist", "relation-dist", "sf-bound"])
def test_more_than_six_dofs_exit_2_before_any_state(monkeypatch, capsys, argv):
    from qdof import fidelity

    def refuse(*args, **kwargs):
        raise AssertionError("a state was built")

    monkeypatch.setattr(fidelity, "two_param_state", refuse)
    monkeypatch.setattr(fidelity, "sf_upper_bound_check", refuse)
    _exit_2_with_one_line(capsys, *argv)
    assert main(list(argv)) == 2
    assert "n <= 6" in capsys.readouterr().err


def test_signaling_copies_mode_past_the_cascade_limit(capsys):
    # dofs mode stops at the 20-DoF sorter cascade (exit 2 above); copies
    # mode needs no cascade and still runs
    code, out = run(capsys, "signaling", "--n", "21", "--trials", "100",
                    "--mode", "copies")
    assert code != 2
    assert json.loads(out)["results"]["exact_fraction"] == "2097151/2097152"


def test_config_without_path_exits_2(capsys):
    _exit_2_with_one_line(capsys, "tables", "--kind", "boson", "--config")


def test_config_missing_file_exits_2(tmp_path, capsys):
    _exit_2_with_one_line(capsys, "tables", "--config",
                          str(tmp_path / "absent.cfg"))


def test_monogamy_subcommand(capsys):
    _, out = run(capsys, "monogamy", "--kind", "boson",
                 "--phases", "10,50,-20,30")
    rec = json.loads(out)
    assert rec["results"]["verdict"] == "violated_maximally"


def test_signaling_without_a_miss_is_no_false_alarm(capsys):
    # 100,000 trials expect about 0.1 misses at n = 20; seeing none is no
    # evidence against the exact probability 1 - 2^-20
    code, out = run(capsys, "signaling", "--n", "20")
    assert code == 0
    assert json.loads(out)["results"]["within_4_sigma"] is True


def test_signaling_subcommand(capsys):
    code, out = run(capsys, "signaling", "--n", "3", "--trials", "20000",
                    "--seed", "1")
    rec = json.loads(out)
    assert code == 0
    assert rec["results"]["within_4_sigma"] is True


def test_fidelity_relation_csv(capsys):
    code, out = run(capsys, "fidelity-relation", "--kind", "indistinguishable",
                    "--n", "2", "--points", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,f_g,F_g,predicted_f_g,residual"
    assert len(lines) == 6
    assert abs(float(lines[-1].split(",")[-1])) < 1e-6


def test_cases_subcommand(capsys):
    _, out = run(capsys, "cases", "--case", "2,5", "--seed", "3")
    rec = json.loads(out)
    assert rec["results"]["5"]["pattern"] == ["zero", "zero", "zero"]
    assert abs(rec["results"]["2"]["residual"]) < 1e-9


@pytest.mark.parametrize("case, repeated", [("2,2", 2), ("2,5,13,5", 5)])
def test_cases_refuses_a_repeated_id_before_any_draw(monkeypatch, capsys,
                                                     case, repeated):
    # a repeated id would draw twice and keep one row under that key
    from qdof import measures

    def never(*args, **kwargs):
        raise AssertionError("cases drew a case before refusing --case")

    monkeypatch.setattr(measures, "random_case", never)
    assert main(["cases", "--case", case, "--seed", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --case names case {repeated} more than once\n"


def test_config_file_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind=boson\nphases=0,0,0,0\n")
    code, out = run(capsys, "tables", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["config"]["kind"] == "boson"


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fluxcapacitor=1\n")
    assert main(["tables", "--config", str(cfg)]) == 2


def test_config_key_of_another_subcommand_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind=boson\n")
    _exit_2_with_one_line(capsys, "qpq", "--config", str(cfg))


@pytest.mark.parametrize("explicit", [
    ("--theta=30", "--config", "CFG"),
    ("--theta", "30", "--config", "CFG"),
    ("--config", "CFG", "--theta", "30"),
])
def test_explicit_flag_beats_config_file(tmp_path, capsys, explicit):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta=60\nancilla=particle\n")
    argv = [str(cfg) if a == "CFG" else a for a in explicit]
    code, out = run(capsys, "qpq", *argv)
    assert code == 0
    config = json.loads(out)["config"]
    assert config["theta_deg"] == 30.0
    assert config["ancilla"] == "particle"


@pytest.mark.parametrize("argv", [
    ("qpq", "--the", "20", "--anc", "particle"),
    ("qpq", "--the=20"),
    ("hardy", "sample", "--run", "3"),
    ("fidelity-relation", "--kind", "distinguishable", "--form", "csv"),
])
def test_abbreviated_flags_exit_2(capsys, argv):
    _exit_2_with_one_line(capsys, *argv)


def test_abbreviated_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("the=30\n")
    _exit_2_with_one_line(capsys, "qpq", "--config", str(cfg))


def test_config_bare_key_sets_a_switch(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# the one boundary point\nallow-boundary\n"
                   "theta = 90\nphi=90\n")
    code, out = run(capsys, "hardy", "probs", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["results"]["e5"] >= 0.0
    cfg.write_text("allow-boundary=1\n")
    _exit_2_with_one_line(capsys, "hardy", "probs", "--config", str(cfg))


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _ = run(capsys, "qpq", "--theta", "45", "--ancilla", "dof",
                  "--output", str(target))
    assert code == 0
    rec = json.loads(target.read_text())
    assert rec["results"]["generalized_singlet_fraction"] > 1.5


def test_swap_and_attack_subcommands(capsys):
    _, out = run(capsys, "swap", "--phases", "0,0,0,0")
    rec = json.loads(out)
    assert rec["results"]["chsh"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)
    _, out = run(capsys, "attack", "--theta", "51.827", "--phi", "51.827",
                 "--alpha", "0.5")
    rec = json.loads(out)
    assert rec["results"]["q"] == pytest.approx(0.09017, abs=1e-4)


def test_hardy_boundary_flag(capsys):
    # rejected without the flag, remapped with it
    assert main(["hardy", "probs", "--theta", "90", "--phi", "90"]) == 2
    code, out = run(capsys, "hardy", "probs", "--theta", "90", "--phi", "90",
                    "--allow-boundary")
    assert code == 0
    assert json.loads(out)["results"]["e5"] >= 0.0


def test_hardy_sample_noise_flag_is_the_library_model(capsys):
    from qdof import hardy

    code, out = run(capsys, "hardy", "sample", "--noise", "0.1,0.2,0.03",
                    "--runs", "3", "--shots", "100", "--seed", "4")
    assert code == 0
    rec = json.loads(out)
    assert rec["config"]["noise"] == "0.1,0.2,0.03"
    p = hardy.HardyParams(math.radians(51.827), math.radians(51.827))
    sets = hardy.noisy_sample(p, hardy.NoiseModel(0.1, 0.2, 0.03, 100),
                              n_runs=3, seed=4)
    assert rec["results"] == {
        name: {"mean": float(f"{s.mean:.12g}"), "sd": float(f"{s.sd:.12g}"),
               "n": 3, "values": [float(f"{v:.12g}") for v in s.values]}
        for name, s in sets.items()}
    default = json.loads(run(capsys, "hardy", "sample", "--runs", "3",
                             "--shots", "100", "--seed", "4")[1])
    assert default["results"] != rec["results"]


def test_hardy_estimate_csv_columns(capsys):
    code, out = run(capsys, "hardy", "estimate", "--theta", "55",
                    "--phi", "55", "--format", "csv")
    assert code == 0
    header = out.split("\n", 1)[0]
    assert header.startswith("state,theta_deg,phi_deg,mean,sd,ci_99")


def test_provenance_carries_version(capsys):
    import qdof
    _, out = run(capsys, "hardy", "qmax")
    assert json.loads(out)["provenance"]["version"] == qdof.__version__
