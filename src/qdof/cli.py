"""Command-line front end.

Every subcommand prints one JSON record that is byte-identical across runs
for the same configuration, including the seed; ``qdof <cmd> --help`` lists
its flags and the other renderings ``--format`` offers.  Angles are taken in
degrees on the command line and converted to radians internally.  Exit
codes: 0 success, 2 validation error (one ``error:`` line on stderr), 3
flagged numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import circuits, fidelity, hardy, measurement, measures, protocols
from .states import matrix_csv, to_density
from .trace import Subsystem, project_one_per_region, to_qubit_array, trace_dof_indist

SCHEMA_VERSION = 1


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist())
    return obj


def _emit(args, config, results, method, text=None):
    """Write the JSON record, or `text` when --format picked the one other
    rendering the subcommand's parser offers."""
    if args.format == "json":
        from . import __version__
        record = {
            "schema_version": SCHEMA_VERSION,
            "config": _round_floats(config),
            "results": _round_floats(results),
            "provenance": {"method": method, "version": __version__},
        }
        text = json.dumps(record, sort_keys=True, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _radians(degrees):
    """Radians of one command-line angle in degrees; nan and inf are rejected."""
    value = float(degrees)
    if not math.isfinite(value):
        raise ValueError(f"angles must be finite numbers of degrees, got {value}")
    return math.radians(value)


def _phases(text):
    vals = [_radians(x) for x in text.split(",")]
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
                 results, "coincidence_tables", "\n".join(plain))


def _cmd_chsh(args):
    vals = [_radians(x) for x in args.settings.split(",")]
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
    dofs_at = {}
    for kets in dm.basis:
        for k in kets:
            dofs_at.setdefault(k.region, set()).update(i for i, _ in k.dofs)
    subs = []
    for item in args.drop.split(","):
        region, _, idx = item.partition(":")
        try:
            sub = Subsystem(region, int(idx))
        except ValueError:
            raise ValueError("--drop expects region:dof_index items, "
                             f"got {item!r}") from None
        if region not in dofs_at:
            raise ValueError(f"--drop: no region {region!r}; the regions are "
                             f"{', '.join(sorted(dofs_at))}")
        if sub.dof_index not in dofs_at[region]:
            raise ValueError(f"--drop: region {region!r} has no DoF "
                             f"{sub.dof_index}; it carries DoFs "
                             f"{', '.join(map(str, sorted(dofs_at[region])))}")
        if sub in subs:
            raise ValueError(f"--drop names DoF {sub.dof_index} of region "
                             f"{region!r} twice")
        subs.append(sub)
    for sub in subs:
        dm = trace_dof_indist(dm, sub)
    arr = to_qubit_array(dm)
    return _emit(args, {"kind": args.kind, "phases_deg": args.phases,
                        "drop": args.drop},
                 {"matrix_re": arr.real, "matrix_im": arr.imag},
                 "dof_trace", matrix_csv(arr))


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
    ids = [int(x) for x in args.case.split(",")] if args.case else range(1, 14)
    for cid in ids:
        if ids.count(cid) > 1:
            raise ValueError(f"--case names case {cid} more than once")
    cases = [measures.random_case(cid, rng) for cid in ids]
    out = {str(cid): {**rep.to_dict(), "pattern": list(pattern)}
           for cid, (rep, pattern) in zip(ids, measures.three_particle_cases(cases))}
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
                 "fidelity_relation", "\n".join(csv_lines) + "\n")


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
    # judged by the binomial spread of the exact probability: the estimate's
    # own stderr is floored near zero when a run sees no decoding miss
    p = float(exact)
    ok = (abs(mc["estimate"] - p)
          <= 4 * math.sqrt(p * (1 - p) / args.trials) + 1e-12)
    _emit(args, {"n": args.n, "trials": args.trials, "seed": args.seed,
                 "mode": args.mode},
          {**mc, "exact_fraction": str(exact), "within_4_sigma": ok},
          "signaling_probability")
    return 0 if ok else 3


def _cmd_qpq(args):
    theta = _radians(args.theta)
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
    cfg = protocols.AttackConfig(_radians(args.theta), _radians(args.phi),
                                 args.alpha)
    return _emit(args, {"theta_deg": args.theta, "phi_deg": args.phi,
                        "alpha": args.alpha},
                 protocols.hardy_attack(cfg), "identity_mixing_attack")


def _noise(args):
    if args.noise:
        d, z, r = (float(x) for x in args.noise.split(","))
        return hardy.NoiseModel(d, z, r, args.shots)
    return hardy.NoiseModel(shots=args.shots)


def _hardy_params(args):
    theta, phi = _radians(args.theta), _radians(args.phi)
    if (args.allow_boundary and abs(args.theta - 90) < 1e-9
            and abs(args.phi - 90) < 1e-9):
        theta = phi = math.radians(89.99)
    return hardy.HardyParams(theta, phi)


def _cmd_hardy_qmax(args):
    t, f, q = hardy.qmax_solve()
    return _emit(args, {}, {"theta_deg": math.degrees(t),
                            "phi_deg": math.degrees(f), "q_max": q,
                            "q_max_closed_form": hardy.Q_MAX},
                 "witness_maximum")


def _cmd_hardy_probs(args):
    p = _hardy_params(args)
    probs = hardy.hardy_probs(p)
    return _emit(args, {"theta_deg": args.theta, "phi_deg": args.phi},
                 {**probs, "q_closed_form": hardy.hardy_q(p)},
                 "witness_probabilities")


def _cmd_hardy_sample(args):
    p = _hardy_params(args)
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
                 results, "noisy_sampling", "\n".join(csv_lines) + "\n")


def _cmd_hardy_estimate(args):
    p = _hardy_params(args)
    nm = _noise(args)
    offline = [hardy.noisy_sample(
        hardy.HardyParams(math.radians(a), math.radians(b)), nm,
        n_runs=args.runs, seed=args.seed + 1 + i)["e5"]
        for i, (a, b) in enumerate(hardy.OFFLINE_STATES_DEG)]
    online = hardy.noisy_sample(p, nm, n_runs=args.runs,
                                seed=args.seed)["e5"]
    res = hardy.estimate_qlb(offline, online, args.alpha)
    csv_lines = ["state,theta_deg,phi_deg,mean,sd,"
                 "ci_99,ci_95,ci_90,ci_80"]

    def ci_cols(s):
        return ",".join(f"{hardy.t_margin(a, s.n, s.sd):.6g}"
                        for a in (0.01, 0.05, 0.10, 0.20))

    for i, ((a, b), s) in enumerate(zip(hardy.OFFLINE_STATES_DEG, offline)):
        kind = "mes" if i == 0 else "ps"
        csv_lines.append(f"{kind},{a},{b},{s.mean:.6g},{s.sd:.6g},"
                         + ci_cols(s))
    csv_lines.append(f"online,{args.theta},{args.phi},{online.mean:.6g},"
                     f"{online.sd:.6g}," + ci_cols(online))
    return _emit(args, {"theta_deg": args.theta, "phi_deg": args.phi,
                        "alpha": args.alpha, "runs": args.runs,
                        "shots": args.shots, "seed": args.seed,
                        "noise": args.noise or "default"},
                 {**res, "online_mean": online.mean, "online_sd": online.sd},
                 "two_phase_estimator", "\n".join(csv_lines) + "\n")


def _expand_config(argv):
    """Splice the lines of ``--config FILE`` in right after the command words:
    ``key=value`` becomes ``--key=value`` and a bare ``key`` becomes
    ``--key``.  The parser then checks them like typed flags, and explicit
    flags, which come later, win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        raise ValueError("--config needs a file path")
    rest = argv[:i] + argv[i + 2:]
    flags = []
    with open(argv[i + 1]) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                key, eq, value = line.partition("=")
                flags.append(f"--{key.strip()}{eq}{value.strip()}")
    words = 0
    while words < len(rest) and not rest[words].startswith("-"):
        words += 1
    return rest[:words] + flags + rest[words:]


class _Parser(argparse.ArgumentParser):
    """Raises each parse error as ValueError, which `main` reports in one
    line with exit code 2.  Flags must be spelled out: an abbreviation is an
    unknown flag, so adding a flag never changes what another argv means.
    Subcommand parsers are built from this class and inherit both."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser():
    """The one description of the command line, built once per process."""
    parser = _Parser(prog="qdof", epilog="Every subcommand also takes "
                     "--config FILE: key=value lines, a bare key for a "
                     "switch; explicit flags win.")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(group, name, func, formats=(), seed=False):
        p = group.add_parser(name)
        p.add_argument("--format", choices=("json", *formats), default="json")
        p.add_argument("--output", default=None)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=func)
        return p

    p = command(commands, "tables", _cmd_tables, ("text",))
    p.add_argument("--kind", choices=circuits.KINDS, required=True)
    p.add_argument("--phases", default="0,0,0,0",
                   help="phi_L,phi_D,phi_R,phi_U in degrees")

    p = command(commands, "chsh", _cmd_chsh)
    p.add_argument("--kind", choices=circuits.KINDS, required=True)
    p.add_argument("--settings", default="0,180,45,-45",
                   help="a0,a1,b0,b1 in degrees")

    p = command(commands, "trace", _cmd_trace, ("csv",))
    p.add_argument("--kind", choices=["boson", "fermion"], default="boson")
    p.add_argument("--phases", default="0,0,0,0")
    p.add_argument("--drop", default="s1:1,s2:1",
                   help="comma list of region:dof_index to trace out")

    p = command(commands, "monogamy", _cmd_monogamy)
    p.add_argument("--kind", choices=["boson", "fermion"], default="boson")
    p.add_argument("--phases", default="0,0,0,0")

    p = command(commands, "cases", _cmd_cases, seed=True)
    p.add_argument("--case", default=None, help="comma list of 1..13")

    p = command(commands, "fidelity-relation", _cmd_fidelity_relation,
                ("csv",))
    p.add_argument("--kind", choices=["distinguishable", "indistinguishable"],
                   required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--points", type=int, default=21)

    p = command(commands, "sf-bound", _cmd_sf_bound, seed=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--samples", type=int, default=200)

    p = command(commands, "signaling", _cmd_signaling, seed=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--mode", choices=["dofs", "copies"], default="dofs")

    p = command(commands, "qpq", _cmd_qpq, seed=True)
    p.add_argument("--theta", type=float, default=45.0, help="degrees")
    p.add_argument("--ancilla", choices=["particle", "dof"], default="dof")

    p = command(commands, "swap", _cmd_swap)
    p.add_argument("--phases", default="0,0,0,0")

    p = command(commands, "attack", _cmd_attack)
    p.add_argument("--theta", type=float, default=51.827)
    p.add_argument("--phi", type=float, default=51.827)
    p.add_argument("--alpha", type=float, default=0.5)

    modes = commands.add_parser("hardy").add_subparsers(dest="mode",
                                                        required=True)
    command(modes, "qmax", _cmd_hardy_qmax)
    probs = command(modes, "probs", _cmd_hardy_probs)
    sample = command(modes, "sample", _cmd_hardy_sample, ("csv",), seed=True)
    estimate = command(modes, "estimate", _cmd_hardy_estimate, ("csv",),
                       seed=True)
    for p in (probs, sample, estimate):
        p.add_argument("--theta", type=float, default=51.827)
        p.add_argument("--phi", type=float, default=51.827)
        p.add_argument("--allow-boundary", action="store_true",
                       help="map theta=phi=90 deg to 89.99 deg")
    estimate.add_argument("--alpha", type=float, default=0.01)
    for p in (sample, estimate):
        p.add_argument("--noise", default=None,
                       help="depolarizing,dephasing,readout")
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--shots", type=int, default=8192)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_expand_config(argv))
        return args.func(args)
    except SystemExit:  # the parser exits only after printing --help
        return 0
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
