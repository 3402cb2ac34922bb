"""The three benchmark workloads: seeded op lists, op execution, output checks.

A workload is an endless sequence of rounds.  Every round holds the same
fixed mix of ops in a seeded order, so throughput can be read per round and
the latency groups keep their shares however many rounds a run completes.
Round ``r`` of workload ``w`` under seed ``s`` is a pure function of
``(w, s, r)``; qdof only ever sees the inputs generated from it.

Each workload exposes

``round_ops(seed, r)``
    the op descriptors of round ``r`` (plain tuples, no qdof objects);
``setup(qdof)``
    the context built once per process before the first timed op;
``prepare(ctx, op)``
    the op's qdof inputs, built outside the timed region;
``execute(ctx, prepared)``
    the timed call into qdof, returning its output;
``check(ctx, op, output)``
    ``None`` when the output is correct, otherwise a one-line reason.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "cli_digests.json"

RELATION_TOL = 1e-6
SF_BOUND_TOL = 1e-6


def _rng(name, seed, r):
    return random.Random(f"{name}/{seed}/{r}")


# -- relation ------------------------------------------------------------------
#
# Points of the two-parameter noise family, both layouts at n = 1, 2, 3.  The
# mix keeps the median inside the n = 2 indistinguishable group (sorted
# positions 7-16 of 19) and the tail inside the n = 3 indistinguishable group
# (the top 1/19).  One such point per round puts about 30 of them in a run,
# so the 11th-slowest op, which the tail reads, sits mid-group, where it is
# steadier than in the group's own tail.

RELATION_MIX = (
    (("distinguishable", 1), 1),
    (("indistinguishable", 1), 1),
    (("distinguishable", 2), 4),
    (("indistinguishable", 2), 10),
    (("distinguishable", 3), 2),
    (("indistinguishable", 3), 1),
)


class Relation:
    name = "relation"

    @staticmethod
    def round_ops(seed, r):
        rng = _rng("relation", seed, r)
        ops = [(kind, n, rng.random())
               for (kind, n), count in RELATION_MIX for _ in range(count)]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def op_n(op):
        return op[1]

    @staticmethod
    def setup(qdof):
        """Layouts and the ceilings measured on each layout's p = 1 point."""
        fid = qdof.fidelity
        ctx = {"qdof": qdof}
        for (kind, n), _count in RELATION_MIX:
            layout = fid.ChannelLayout(kind, n)
            endpoint = fid.two_param_state(1.0, layout)
            ctx[kind, n] = (layout, fid.FidelityParams(
                fid.generalized_teleportation_fidelity(endpoint, layout),
                fid.generalized_singlet_fraction(endpoint, layout)))
        return ctx

    @staticmethod
    def prepare(ctx, op):
        kind, n, p = op
        return (p,) + ctx[kind, n]

    @staticmethod
    def execute(ctx, prepared):
        p, layout, params = prepared
        fid = ctx["qdof"].fidelity
        dm = fid.two_param_state(p, layout)
        f_g = fid.generalized_teleportation_fidelity(dm, layout, params)
        big_f = fid.generalized_singlet_fraction(dm, layout)
        return f_g, big_f

    @staticmethod
    def check(ctx, op, output):
        kind, n, _p = op
        f_g, big_f = output
        _layout, params = ctx[kind, n]
        d = 2
        predicted = ((big_f - n / d ** 2) * (params.f_max - 1 / d)
                     / (params.big_f_max - n / d ** 2) + 1 / d)
        residual = abs(f_g - predicted)
        if not residual <= RELATION_TOL:
            return f"relation residual {residual:.3g} > {RELATION_TOL:g}"
        return None


# -- sf-bound ------------------------------------------------------------------
#
# Seeded random pure distinguishable states: the same trace layer as
# `relation`, on dense inputs.  Three n = 2 states per n = 3 state keep the
# median inside the n = 2 group and the tail inside the n = 3 group.

SF_BOUND_MIX = ((2, 6), (3, 2))


class SfBound:
    name = "sf-bound"

    @staticmethod
    def round_ops(seed, r):
        rng = _rng("sf-bound", seed, r)
        ops = [(n, rng.getrandbits(63))
               for n, count in SF_BOUND_MIX for _ in range(count)]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def op_n(op):
        return op[0]

    @staticmethod
    def setup(qdof):
        """The distinguishable layouts and their basis (from p = 0)."""
        import numpy as np
        fid = qdof.fidelity
        ctx = {"qdof": qdof, "np": np}
        for n, _count in SF_BOUND_MIX:
            layout = fid.ChannelLayout("distinguishable", n)
            ctx[n] = (layout, fid.two_param_state(0.0, layout))
        return ctx

    @staticmethod
    def prepare(ctx, op):
        n, state_seed = op
        np = ctx["np"]
        layout, template = ctx[n]
        rng = np.random.default_rng(state_seed)
        dim = len(template.basis)
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        dm = type(template)(template.basis, np.outer(v, v.conj()),
                            template.eta, template.dof_specs,
                            template.n_dofs_orig)
        return dm, layout

    @staticmethod
    def execute(ctx, prepared):
        dm, layout = prepared
        return ctx["qdof"].fidelity.generalized_singlet_fraction(dm, layout)

    @staticmethod
    def check(ctx, op, output):
        n = op[0]
        bound = 1.0 + (n - 1) / 2 + SF_BOUND_TOL
        if not 0.0 <= output <= bound:
            return f"singlet fraction {output!r} outside [0, {bound}]"
        return None


# -- cli -----------------------------------------------------------------------
#
# The README command list without `fidelity-relation` and `sf-bound`.  Each
# slot draws its arguments from a finite pool so that every argv has a stdout
# digest recorded at the seed commit.  `hardy qmax` appears twice per round
# (2 of 17 ops) so the tail reads inside the qmax group; the median reads
# inside the group of 3-12 ms commands.

PHASES = ("0,0,0,0", "10,20,30,40", "0,30,60,90", "45,0,90,135")
SETTINGS = ("0,180,45,-45", "0,90,45,-45", "10,170,30,-60", "0,180,0,90")
ANGLES = (("51.827", "51.827"), ("55", "55"), ("40", "65"), ("70", "30"))


def _pool(*variants):
    return tuple(tuple(v) for v in variants)


CLI_SLOTS = (
    _pool(*(["tables", "--kind", k, "--phases", ph]
            for k in ("boson", "fermion", "distinguishable") for ph in PHASES)),
    _pool(*(["chsh", "--kind", "boson", "--settings", s] for s in SETTINGS)),
    _pool(*(["chsh", "--kind", "fermion", "--settings", s] for s in SETTINGS)),
    _pool(*(["chsh", "--kind", "distinguishable", "--settings", s]
            for s in SETTINGS)),
    _pool(*(["trace", "--kind", k, "--phases", ph, "--drop", dr]
            for k in ("boson", "fermion") for ph in PHASES
            for dr in ("s1:1,s2:1", "s1:2,s2:2"))),
    _pool(*(["monogamy", "--kind", k, "--phases", ph]
            for k in ("boson", "fermion") for ph in PHASES)),
    _pool(*(["cases", "--seed", str(s)] for s in range(8))),
    _pool(*(["signaling", "--n", str(n), "--trials", "100000", "--seed", str(s)]
            for n in (2, 3) for s in range(4))),
    _pool(*(["qpq", "--theta", t, "--ancilla", "dof"]
            for t in ("45", "30", "60", "120"))),
    _pool(*(["qpq", "--theta", t, "--ancilla", "particle"]
            for t in ("45", "30", "60", "120"))),
    _pool(*(["swap", "--phases", ph] for ph in PHASES)),
    _pool(*(["attack", "--theta", t, "--phi", f, "--alpha", a]
            for (t, f), a in zip(ANGLES, ("0.5", "0.25", "0.75", "0.1")))),
    _pool(*(["hardy", "probs", "--theta", t, "--phi", f] for t, f in ANGLES)),
    _pool(*(["hardy", "sample", "--theta", t, "--phi", f, "--runs", "10",
             "--seed", str(s)] for t, f in ANGLES[:2] for s in range(4))),
    _pool(*(["hardy", "estimate", "--theta", t, "--phi", f, "--alpha", "0.01",
             "--format", "csv", "--seed", str(s)]
            for t, f in ANGLES[:2] for s in range(4))),
    _pool(["hardy", "qmax"]),
    _pool(["hardy", "qmax"]),
)


def cli_argvs():
    """Every argv the cli workload can issue, in a fixed order."""
    return sorted({argv for pool in CLI_SLOTS for argv in pool})


def argv_key(argv):
    return " ".join(argv)


def run_cli(main, argv):
    """Call `main(argv)` in-process; return (exit code, stdout bytes)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue().encode()


class Cli:
    name = "cli"

    @staticmethod
    def round_ops(seed, r):
        rng = _rng("cli", seed, r)
        ops = [rng.choice(pool) for pool in CLI_SLOTS]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def op_n(op):
        return None

    @staticmethod
    def setup(qdof):
        import qdof.cli
        return {"qdof": qdof,
                "digests": json.loads(DIGESTS_PATH.read_text())}

    @staticmethod
    def prepare(ctx, op):
        return op

    @staticmethod
    def execute(ctx, argv):
        return run_cli(ctx["qdof"].cli.main, argv)

    @staticmethod
    def check(ctx, op, output):
        rc, stdout = output
        want = ctx["digests"].get(argv_key(op))
        if want is None:
            return f"no recorded digest for {argv_key(op)!r}"
        if rc != want["rc"]:
            return f"{argv_key(op)!r}: exit code {rc}, expected {want['rc']}"
        if hashlib.sha256(stdout).hexdigest() != want["sha256"]:
            return f"{argv_key(op)!r}: stdout differs from the recorded digest"
        return None


WORKLOADS = {w.name: w for w in (Relation, SfBound, Cli)}

# The traced functions each workload must reach.  The traced run fails its
# self-test when one of them records no call, so a binding the tracer missed
# cannot pass as a zero.
REACHES = {
    "relation": (
        "trace.trace_dof_dist", "trace.trace_dof_indist",
        "trace.to_qubit_array", "fidelity.singlet_fraction",
        "fidelity.average_teleport_fidelity", "fidelity.two_param_state",
        "fidelity.generalized_singlet_fraction",
        "fidelity.generalized_teleportation_fidelity"),
    "sf-bound": (
        "trace.trace_dof_dist", "trace.to_qubit_array",
        "fidelity.singlet_fraction", "fidelity.generalized_singlet_fraction"),
    "cli": (
        "trace.trace_dof_indist", "trace.project_one_per_region",
        "trace.trace_region", "trace.to_qubit_array",
        "fidelity.singlet_fraction", "states.to_density", "states.normalize",
        "measures.case_state", "measures.concurrence",
        "measures.monogamy_report", "circuits.li_circuit",
        "circuits.swap_circuit", "measurement.coincidence_table",
        "measurement.chsh", "protocols.signaling_mc", "protocols.qpq_sf",
        "protocols.swap_verify", "hardy.qmax_solve", "hardy.hardy_q",
        "hardy.t_quantile", "hardy.noisy_sample", "cli.main"),
}
