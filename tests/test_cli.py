import argparse
import json
import math

import pytest

from qdof import cli
from qdof.cli import build_parser, main


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
    ("hardy", "sample", "--noise", "0.1,0.2"),
    ("hardy", "sample", "--noise", "a,b,c"),
    ("hardy", "sample", "--noise", "0.1,0.1,0.1,0.1"),
    ("hardy", "sample", "--noise", ""),
    ("hardy", "estimate", "--noise", ""),
    ("cases", "--case", ""),
    ("cases", "--case", "1,,2"),
])
def test_empty_samples_nonfinite_angles_and_bad_drop_exit_2(capsys, argv):
    _exit_2_with_one_line(capsys, *argv)


@pytest.mark.parametrize("mode", ["sample", "estimate"])
def test_shots_beyond_int64_exit_2(capsys, mode):
    assert main(["hardy", mode, "--shots", str(2 ** 63)]) == 2
    assert capsys.readouterr().err == (
        "error: shots must be an integer in 1..2**63 - 1\n")


@pytest.mark.parametrize("noise", ["0.1,0.2", "a,b,c", "0.1,0.1,0.1,0.1"])
def test_hardy_noise_names_its_three_values(capsys, noise):
    assert main(["hardy", "sample", "--noise", noise]) == 2
    assert capsys.readouterr().err == (
        "error: expected three comma-separated noise probabilities "
        "(depolarizing,dephasing,readout)\n")


@pytest.mark.parametrize("points", ["-3", "0"])
def test_points_below_one_names_the_flag(capsys, points):
    """numpy's own messages ("Number of samples, -3, must be
    non-negative.", "p_grid needs at least one point") named no flag."""
    assert main(["fidelity-relation", "--kind", "distinguishable",
                 "--points", points]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --points must be at least 1, "
                            f"got {points}\n")


@pytest.mark.parametrize("argv, message", [
    (("qpq", "--theta", "200"),
     "--theta must lie in (0, 180) degrees, got 200.0"),
    (("hardy", "estimate", "--alpha", "0"),
     "--alpha must lie in (0, 1), got 0.0"),
])
def test_out_of_range_value_names_its_flag_before_any_work(monkeypatch, capsys,
                                                           argv, message):
    """The library's own messages ("theta must lie in (0, pi)", "tail
    probability must lie in (0, 0.5)") gave the range in other units, and
    estimate drew all six sample sets first."""
    from qdof import hardy, protocols

    def never(*args, **kwargs):
        raise AssertionError("work started before the flag was checked")

    monkeypatch.setattr(protocols, "qpq_sf", never)
    monkeypatch.setattr(hardy, "noisy_sample", never)
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("cases",), ("sf-bound",), ("signaling",), ("qpq",), ("hardy", "sample"),
    ("hardy", "estimate"),
])
def test_negative_seed_names_its_flag_before_any_draw(monkeypatch, capsys,
                                                      argv):
    """numpy's own message ("expected non-negative integer") named no flag,
    estimate drew all five calibration sets first, and qpq, which draws
    nothing, took the seed."""
    import numpy as np

    from qdof import protocols

    def never(*args, **kwargs):
        raise AssertionError("work started before the seed was checked")

    monkeypatch.setattr(np.random, "default_rng", never)
    monkeypatch.setattr(protocols, "qpq_sf", never)
    assert main([*argv, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: argument --seed: expected an integer "
                            ">= 0, got '-1'\n")


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


@pytest.mark.parametrize("argv, flag, item", [
    (("tables", "--kind", "boson", "--phases", "0,a,0,0"), "--phases", "'a'"),
    (("trace", "--phases", "x,0,0,0"), "--phases", "'x'"),
    (("monogamy", "--kind", "fermion", "--phases", "0,0,0,"), "--phases",
     "''"),
    (("swap", "--phases", "45,0,90,1e"), "--phases", "'1e'"),
    (("chsh", "--kind", "boson", "--settings", "0,180,b,-45"), "--settings",
     "'b'"),
])
def test_an_angle_that_is_no_number_names_the_flag_and_item(capsys, argv,
                                                            flag, item):
    assert main(list(argv)) == 2
    assert capsys.readouterr() == (
        "", f"error: {flag} expects four comma-separated {flag[2:]} in "
            f"degrees, got {item}\n")


@pytest.mark.parametrize("case, item", [("", "''"), ("1,,2", "''"),
                                        ("3,x", "'x'")])
def test_cases_names_the_bad_item(capsys, case, item):
    assert main(["cases", "--case", case]) == 2
    assert capsys.readouterr().err == (
        f"error: --case expects a comma list of case numbers 1..13, got {item}\n")


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


def test_config_empty_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case=\n")
    _exit_2_with_one_line(capsys, "cases", "--config", str(cfg))


def test_config_equals_form_reads_the_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta=60\n")
    code, out = run(capsys, "hardy", "probs", f"--config={cfg}")
    assert code == 0
    assert json.loads(out)["config"]["theta_deg"] == 60.0


@pytest.mark.parametrize("second", [("--config", "CFG"), ("--config=CFG",)])
def test_second_config_exits_2_naming_config(tmp_path, capsys, second):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta=60\n")
    argv = [a.replace("CFG", str(cfg)) for a in second]
    assert main(["hardy", "probs", "--config", str(cfg), *argv]) == 2
    assert capsys.readouterr().err == "error: --config may be given only once\n"


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


def test_hardy_estimate_echoes_the_noise_flag(capsys):
    code, out = run(capsys, "hardy", "estimate", "--noise", "0.05,0.12,0.02",
                    "--runs", "3", "--shots", "100")
    assert code == 0
    assert json.loads(out)["config"]["noise"] == "0.05,0.12,0.02"


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


@pytest.mark.parametrize("mode", ["probs", "sample", "estimate"])
def test_allow_boundary_is_recorded_only_when_on(capsys, mode):
    quick = () if mode == "probs" else ("--runs", "2", "--shots", "100")
    argv = ("hardy", mode, "--theta", "90", "--phi", "90", *quick)
    code, out = run(capsys, *argv, "--allow-boundary")
    assert code == 0
    assert json.loads(out)["config"]["allow_boundary"] is True
    # without the switch the boundary point exits 2 and prints no record;
    # off the boundary the record has no such key
    assert run(capsys, *argv) == (2, "")
    code, out = run(capsys, "hardy", mode, "--theta", "60", "--phi", "60",
                    *quick)
    assert code == 0
    assert "allow_boundary" not in json.loads(out)["config"]


# theta = phi = 90 deg and its images mod 180 deg, where chi has no limit
BOUNDARY_IMAGES = [("270", "90"), ("-90", "90"), ("90", "270"), ("450", "-90")]
HARDY_ANGLE_COMMANDS = {
    "probs": ("hardy", "probs"),
    "sample": ("hardy", "sample", "--runs", "2", "--shots", "100"),
    "estimate": ("hardy", "estimate", "--runs", "2", "--shots", "100"),
    "attack": ("attack",),
}


@pytest.mark.parametrize("theta, phi", BOUNDARY_IMAGES)
@pytest.mark.parametrize("command", list(HARDY_ANGLE_COMMANDS))
def test_every_image_of_the_boundary_exits_2(capsys, command, theta, phi):
    argv = [*HARDY_ANGLE_COMMANDS[command], "--theta", theta, "--phi", phi]
    # --allow-boundary maps exactly (90, 90) and nothing else
    switches = [[]] if command == "attack" else [[], ["--allow-boundary"]]
    for switch in switches:
        assert main(argv + switch) == 2
        assert capsys.readouterr() == (
            "", "error: chi is undefined where cos(theta) = cos(phi) = 0\n")


@pytest.mark.parametrize("theta, phi", [("89.99", "90"), ("90", "89.99")])
@pytest.mark.parametrize("command", list(HARDY_ANGLE_COMMANDS))
def test_points_beside_the_boundary_print(capsys, command, theta, phi):
    code, out = run(capsys, *HARDY_ANGLE_COMMANDS[command], "--theta", theta,
                    "--phi", phi)
    assert code == 0
    assert json.loads(out)["config"]["theta_deg"] == float(theta)


def _subcommands(parser, words=()):
    """(command words, parser) of every subcommand, each hardy mode too."""
    groups = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        return [(words, parser)]
    return [leaf for name, sub in groups[0].choices.items()
            for leaf in _subcommands(sub, (*words, name))]


# values that keep a run short; every other flag gets its default, its first
# choice, or the switch on
_QUICK = {"samples": "2", "trials": "1000", "points": "3", "runs": "2",
          "shots": "100", "case": "2,7", "noise": "0.01,0.02,0.03"}


@pytest.mark.parametrize("words, parser", [
    pytest.param(words, parser, id=" ".join(words))
    for words, parser in _subcommands(build_parser())])
def test_config_records_every_flag_the_subcommand_takes(tmp_path, capsys,
                                                        words, parser):
    flags = [a for a in parser._actions
             if a.option_strings and a.dest != "help"]
    # an optional flag defaulting to None needs the name its omission is
    # recorded under, or a run without it would fail in the rule
    unnamed = [a.dest for a in flags if a.default is None and not a.required
               and a.dest != "output" and a.dest not in cli._OMITTED]
    assert not unnamed, f"no recorded name for an omitted {unnamed}"
    target = tmp_path / "record.json"
    argv = list(words)
    for a in flags:
        argv.append(a.option_strings[0])
        if isinstance(a, argparse._StoreTrueAction):
            continue
        argv.append(str(target) if a.dest == "output" else
                    _QUICK.get(a.dest) or (a.choices[0] if a.choices
                                           else str(a.default)))
    assert run(capsys, *argv) == (0, "")
    config = json.loads(target.read_text())["config"]
    assert set(config) == {
        f"{a.dest}_deg" if a.dest in ("phases", "settings", "theta", "phi")
        else a.dest for a in flags if a.dest not in ("format", "output")}
