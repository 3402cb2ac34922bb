"""Command-line front end.

Every subcommand prints one JSON record (optionally CSV/text) that is
byte-identical across runs for the same configuration, including the seed.
Angles are taken in degrees on the command line and converted to radians
internally.  Exit codes: 0 success, 2 validation error, 3 flagged numeric
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import circuits, fidelity, hardy, measurement, measures, protocols
from .states import to_density
from .trace import Subsystem, project_one_per_region, to_qubit_array, trace_dof_indist

SCHEMA_VERSION = 1


def _round_floats(obj, digits=12):
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, complex):
        return {"re": _round_floats(obj.real), "im": _round_floats(obj.imag)}
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist(), digits)
    if isinstance(obj, (np.floating, np.integer)):
        return _round_floats(float(obj), digits)
    return obj


def _emit(args, config, results, method, csv_text=None, plain=None):
    from . import __version__
    record = {
        "schema_version": SCHEMA_VERSION,
        "config": _round_floats(config),
        "results": _round_floats(results),
        "provenance": {"method": method, "version": __version__},
    }
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        text = json.dumps(record, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        text = csv_text if csv_text is not None else json.dumps(record, sort_keys=True) + "\n"
    else:
        text = plain if plain is not None else json.dumps(record, sort_keys=True, indent=2) + "\n"
    out = getattr(args, "output", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _phases(text):
    vals = [math.radians(float(x)) for x in text.split(",")]
    if len(vals) != 4:
        raise ValueError("expected four comma-separated phases (degrees)")
    return circuits.PhaseConfig(phi_l=vals[0], phi_d=vals[1],
                                phi_r=vals[2], phi_u=vals[3])


def _table_dict(t):
    return {"rows": list(t.rows), "cols": list(t.cols),
            "probs": t.probs, "observable_a": t.observable_a,
            "observable_b": t.observable_b, "total": t.total}


def _cmd_tables(args):
    ph = _phases(args.phases)
    state = circuits.li_circuit(args.kind, ph)
    results = {"phi": ph.phi}
    plain = []
    for obs in (("external", "external"), ("internal", "internal"),
                ("internal", "external"), ("external", "internal")):
        t = measurement.coincidence_table(state, *obs)
        results[f"{obs[0]}_{obs[1]}"] = _table_dict(t)
        plain.append(f"A:{obs[0]} B:{obs[1]}\n{t.as_text()}\n")
    return _emit(args, {"kind": args.kind, "phases_deg": args.phases},
                 results, "coincidence_tables", plain="\n".join(plain))


def _cmd_chsh(args):
    vals = [math.radians(float(x)) for x in args.settings.split(",")]
    if len(vals) != 4:
        raise ValueError("expected four comma-separated settings (degrees)")
    settings = measurement.ChshSettings(*vals)
    value = measurement.chsh(args.kind, settings)
    verdict = ("no violation" if value <= 2.0 + 1e-12 else
               "violation" if value < 2 * math.sqrt(2) - 1e-9 else
               "maximal violation")
    return _emit(args, {"kind": args.kind, "settings_deg": args.settings},
                 {"chsh": value, "verdict": verdict}, "chsh_scan")


def _cmd_trace(args):
    ph = _phases(args.phases)
    dm = project_one_per_region(to_density(circuits.li_circuit(args.kind, ph)),
                                ["s1", "s2"])
    for item in args.drop.split(","):
        region, idx = item.split(":")
        dm = trace_dof_indist(dm, Subsystem(region, int(idx)))
    arr = to_qubit_array(dm)
    csv_text = "\n".join(",".join(repr(float(x)) for pair in
                                  zip(row.real, row.imag) for x in pair)
                         for row in arr) + "\n"
    return _emit(args, {"kind": args.kind, "phases_deg": args.phases,
                        "drop": args.drop},
                 {"matrix_re": arr.real, "matrix_im": arr.imag},
                 "dof_trace", csv_text=csv_text)


def _cmd_monogamy(args):
    ph = _phases(args.phases)
    dm = project_one_per_region(to_density(circuits.li_circuit(args.kind, ph)),
                                ["s1", "s2"])
    rep = measures.monogamy_report(dm, Subsystem("s1", 2), Subsystem("s2", 2),
                                   Subsystem("s2", 1))
    return _emit(args, {"kind": args.kind, "phases_deg": args.phases},
                 rep.to_dict(), "interferometer_monogamy")


def _cmd_cases(args):
    rng = np.random.default_rng(args.seed)
    out = {}
    ids = [int(x) for x in args.case.split(",")] if args.case else range(1, 14)
    for cid in ids:
        case = measures.random_case(cid, rng)
        rep, pattern = measures.three_particle_case(case)
        out[str(cid)] = {**rep.to_dict(), "pattern": list(pattern)}
    return _emit(args, {"case": args.case or "all", "seed": args.seed},
                 out, "three_particle_cases")


def _cmd_fidelity_relation(args):
    layout = fidelity.ChannelLayout(args.kind, args.n)
    recs = fidelity.relation_check(layout,
                                   p_grid=np.linspace(0, 1, args.points))
    csv_lines = ["p,f_g,F_g,predicted_f_g,residual"]
    for r in recs:
        csv_lines.append(",".join(f"{r[k]:.12g}" for k in
                                  ("p", "f_g", "F_g", "predicted_f_g",
                                   "residual")))
    return _emit(args, {"kind": args.kind, "n": args.n, "points": args.points},
                 {"grid": recs,
                  "max_residual": max(abs(r["residual"]) for r in recs)},
                 "fidelity_relation", csv_text="\n".join(csv_lines) + "\n")


def _cmd_sf_bound(args):
    layout = fidelity.ChannelLayout("distinguishable", args.n)
    rep = fidelity.sf_upper_bound_check(layout, samples=args.samples,
                                        seed=args.seed)
    code = 0 if rep["within"] else 3
    _emit(args, {"n": args.n, "samples": args.samples, "seed": args.seed},
          rep, "singlet_fraction_bound")
    return code


def _cmd_signaling(args):
    cfg = protocols.SignalingConfig(args.n, args.trials, args.seed)
    mc = protocols.signaling_mc(cfg, mode=args.mode)
    exact = (protocols.signaling_exact(args.n) if args.mode == "dofs"
             else protocols.signaling_multicopy(args.n))
    ok = abs(mc["estimate"] - float(exact)) <= 4 * mc["stderr"] + 1e-12
    _emit(args, {"n": args.n, "trials": args.trials, "seed": args.seed,
                 "mode": args.mode},
          {**mc, "exact_fraction": str(exact), "within_4_sigma": ok},
          "signaling_probability")
    return 0 if ok else 3


def _cmd_qpq(args):
    theta = math.radians(args.theta)
    return _emit(args, {"theta_deg": args.theta, "ancilla": args.ancilla,
                        "seed": args.seed},
                 {"generalized_singlet_fraction":
                  protocols.qpq_sf(theta, args.ancilla)},
                 "query_resource_comparison")


def _cmd_swap(args):
    ph = _phases(args.phases)
    res = protocols.swap_verify(ph)
    return _emit(args, {"phases_deg": args.phases},
                 {"table": _table_dict(res["table"]), "chsh": res["chsh"],
                  "phi": res["phi"]},
                 "swap_verification")


def _cmd_attack(args):
    cfg = protocols.AttackConfig(math.radians(args.theta),
                                 math.radians(args.phi), args.alpha)
    return _emit(args, {"theta_deg": args.theta, "phi_deg": args.phi,
                        "alpha": args.alpha},
                 protocols.hardy_attack(cfg), "identity_mixing_attack")


def _noise(args):
    if args.noise:
        d, z, r = (float(x) for x in args.noise.split(","))
        return hardy.NoiseModel(d, z, r, args.shots)
    return hardy.NoiseModel(shots=args.shots)


def _cmd_hardy(args):
    if args.hardy_cmd == "qmax":
        t, f, q = hardy.qmax_solve()
        return _emit(args, {}, {"theta_deg": math.degrees(t),
                                "phi_deg": math.degrees(f), "q_max": q,
                                "q_max_closed_form": hardy.Q_MAX},
                     "witness_maximum")
    theta, phi = math.radians(args.theta), math.radians(args.phi)
    if (args.allow_boundary and abs(args.theta - 90) < 1e-9
            and abs(args.phi - 90) < 1e-9):
        theta = phi = math.radians(89.99)
    p = hardy.HardyParams(theta, phi)
    if args.hardy_cmd == "probs":
        probs = hardy.hardy_probs(p)
        return _emit(args, {"theta_deg": args.theta, "phi_deg": args.phi},
                     {**probs, "q_closed_form": hardy.hardy_q(p)},
                     "witness_probabilities")
    if args.hardy_cmd == "sample":
        sets = hardy.noisy_sample(p, _noise(args), n_runs=args.runs,
                                  seed=args.seed)
        results = {name: {"mean": s.mean, "sd": s.sd, "n": s.n,
                          "values": s.values}
                   for name, s in sets.items()}
        csv_lines = ["equation,run,estimate"]
        for name, s in sorted(sets.items()):
            for i, v in enumerate(s.values):
                csv_lines.append(f"{name},{i},{v:.12g}")
        return _emit(args, {"theta_deg": args.theta, "phi_deg": args.phi,
                            "noise": args.noise or "default",
                            "runs": args.runs, "shots": args.shots,
                            "seed": args.seed},
                     results, "noisy_sampling",
                     csv_text="\n".join(csv_lines) + "\n")
    if args.hardy_cmd == "estimate":
        nm = _noise(args)
        offline_pts = [(45.0, 90.0), (0.0, 0.0), (45.0, 0.0), (90.0, 0.0),
                       (90.0, 45.0)]
        offline = [hardy.noisy_sample(
            hardy.HardyParams(math.radians(a), math.radians(b)), nm,
            n_runs=args.runs, seed=args.seed + 1 + i)["e5"]
            for i, (a, b) in enumerate(offline_pts)]
        online = hardy.noisy_sample(p, nm, n_runs=args.runs,
                                    seed=args.seed)["e5"]
        res = hardy.estimate_qlb(offline, online, args.alpha)
        csv_lines = ["state,theta_deg,phi_deg,mean,sd,"
                     "ci_99,ci_95,ci_90,ci_80"]

        def ci_cols(s):
            return ",".join(
                f"{hardy.t_quantile(a / 2, s.n - 1) * s.sd / math.sqrt(s.n):.6g}"
                for a in (0.01, 0.05, 0.10, 0.20))

        for (a, b), s in zip(offline_pts, offline):
            kind = "mes" if (a, b) == (45.0, 90.0) else "ps"
            csv_lines.append(f"{kind},{a},{b},{s.mean:.6g},{s.sd:.6g},"
                             + ci_cols(s))
        csv_lines.append(f"online,{args.theta},{args.phi},{online.mean:.6g},"
                         f"{online.sd:.6g}," + ci_cols(online))
        return _emit(args, {"theta_deg": args.theta, "phi_deg": args.phi,
                            "alpha": args.alpha, "runs": args.runs,
                            "shots": args.shots, "seed": args.seed,
                            "noise": args.noise or "default"},
                     {**res, "online_mean": online.mean, "online_sd": online.sd},
                     "two_phase_estimator", csv_text="\n".join(csv_lines) + "\n")
    raise ValueError(f"unknown hardy subcommand {args.hardy_cmd!r}")


def _apply_config_file(parser, argv):
    """Expand --config key=value files into flags; explicit flags win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        raise ValueError("--config needs a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    known = {a.lstrip("-") for a in
             ("format", "output", "seed", "kind", "phases", "settings",
              "drop", "case", "n", "points", "samples", "trials", "mode",
              "theta", "phi", "alpha", "ancilla", "noise", "runs", "shots",
              "allow-boundary")}
    extra = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            flag = "--" + key
            if flag not in rest:
                extra += [flag, value.strip()]
    return rest + extra


def build_parser():
    parser = argparse.ArgumentParser(prog="qdof")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["json", "csv", "text"],
                       default="json")
        p.add_argument("--output", default=None)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("tables")
    p.add_argument("--kind", choices=circuits.KINDS, required=True)
    p.add_argument("--phases", default="0,0,0,0",
                   help="phi_L,phi_D,phi_R,phi_U in degrees")
    common(p)
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("chsh")
    p.add_argument("--kind", choices=circuits.KINDS, required=True)
    p.add_argument("--settings", default="0,180,45,-45",
                   help="a0,a1,b0,b1 in degrees")
    common(p)
    p.set_defaults(func=_cmd_chsh)

    p = sub.add_parser("trace")
    p.add_argument("--kind", choices=["boson", "fermion"], default="boson")
    p.add_argument("--phases", default="0,0,0,0")
    p.add_argument("--drop", default="s1:1,s2:1",
                   help="comma list of region:dof_index to trace out")
    common(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("monogamy")
    p.add_argument("--kind", choices=["boson", "fermion"], default="boson")
    p.add_argument("--phases", default="0,0,0,0")
    common(p)
    p.set_defaults(func=_cmd_monogamy)

    p = sub.add_parser("cases")
    p.add_argument("--case", default=None, help="comma list of 1..13")
    common(p)
    p.set_defaults(func=_cmd_cases)

    p = sub.add_parser("fidelity-relation")
    p.add_argument("--kind", choices=["distinguishable", "indistinguishable"],
                   required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--points", type=int, default=21)
    common(p)
    p.set_defaults(func=_cmd_fidelity_relation)

    p = sub.add_parser("sf-bound")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--samples", type=int, default=200)
    common(p)
    p.set_defaults(func=_cmd_sf_bound)

    p = sub.add_parser("signaling")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--mode", choices=["dofs", "copies"], default="dofs")
    common(p)
    p.set_defaults(func=_cmd_signaling)

    p = sub.add_parser("qpq")
    p.add_argument("--theta", type=float, default=45.0, help="degrees")
    p.add_argument("--ancilla", choices=["particle", "dof"], default="dof")
    common(p)
    p.set_defaults(func=_cmd_qpq)

    p = sub.add_parser("swap")
    p.add_argument("--phases", default="0,0,0,0")
    common(p)
    p.set_defaults(func=_cmd_swap)

    p = sub.add_parser("attack")
    p.add_argument("--theta", type=float, default=51.827)
    p.add_argument("--phi", type=float, default=51.827)
    p.add_argument("--alpha", type=float, default=0.5)
    common(p)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("hardy")
    p.add_argument("hardy_cmd", choices=["probs", "qmax", "sample", "estimate"])
    p.add_argument("--theta", type=float, default=51.827)
    p.add_argument("--phi", type=float, default=51.827)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--noise", default=None,
                   help="depolarizing,dephasing,readout")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--shots", type=int, default=8192)
    p.add_argument("--allow-boundary", action="store_true",
                   help="map theta=phi=90 deg to 89.99 deg")
    common(p)
    p.set_defaults(func=_cmd_hardy)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config_file(parser, argv))
        return args.func(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
