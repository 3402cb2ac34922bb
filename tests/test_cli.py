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
    assert main(["frobnicate"]) == 2


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
