"""`fidelity-relation` and `sf-bound` print their recorded bytes.

The benchmark's digest table (`benchmarks/cli_digests.json`) has no
`fidelity-relation` or `sf-bound` argv, so their records are pinned here,
keyed by full argv (test ids drop the leading `fidelity-relation`): for
`fidelity-relation` of both kinds at n = 1-4, in JSON and CSV, and at n = 5
with `--points 2`, and for `sf-bound --n 1/2/3`, the exit code is 0 and the
SHA-256 of stdout is the one recorded.

`relation_check` records a residual below 1e-12 in magnitude as 0.0.  The
sixteen n = 1-4 `fidelity-relation` entries were re-recorded from the commit
that made that change alone (88db475, "Record relation residuals on an
absolute grid"): only their `residual` and `max_residual` fields moved, from
round-off such as 1.11022302463e-16 (at most 3.3e-16) to 0.  The n = 5 and
`sf-bound` entries did not move and keep their older recordings (before a
product basis carried its own slots).  So the records no longer pin the
order of any floating-point sum.

`relation_check` reduces the noise family's p = 1 endpoint itself and reads
every point's grid off it as p * grid(1) + (1 - p) * I/4, so the records above
bypass the one-entry grid memo of `generalized_teleportation_fidelity` and
`generalized_singlet_fraction`.  They were recorded when every point was
reduced on its own, and the affine grid prints the same bytes.
`PUBLIC_DIGESTS` pins those two functions, called back to back on one state as
the benchmark's `relation` op calls them: for every (kind, n) group of that
op's mix, the SHA-256 of `repr((f_g, F_g))` at p = 0, 0.37 and 0.9, one line
each, recorded before the memo was added.

The printed fields are rounded to 12 significant digits, and
`PUBLIC_DIGESTS` hashes full `repr`s.  Both pass through LAPACK (eigvalsh)
and BLAS products, whose last bits can depend on the numpy build and on the
OpenBLAS kernel picked for the CPU.  The digests were recorded with
CPython 3.11.7, numpy 2.4.6 and its bundled OpenBLAS 0.3.31 (DYNAMIC_ARCH) on
an x86-64 Intel Xeon.  A mismatch under another build or CPU may be an
environment difference rather than a code change: run the same argv at the
parent commit in that environment before reading it as a regression.
"""

import contextlib
import hashlib
import io

import pytest

from qdof import fidelity
from qdof.cli import main

DIGESTS = {
    "fidelity-relation --kind distinguishable --n 1 --format json":
        "ecbb84ef44622cc86e4f2b56ea08b75904e16be357e2cf46a41892346601a52a",
    "fidelity-relation --kind distinguishable --n 1 --format csv":
        "6131d934b47f500513bb21a6af3c730c91d0bd71e634ee33d22202081ad67772",
    "fidelity-relation --kind distinguishable --n 2 --format json":
        "1fa00e5e13dc40920ea6350fa10a1cd4288da98b77a498b51bf9c18540e95556",
    "fidelity-relation --kind distinguishable --n 2 --format csv":
        "479e68901d8dcbf5e9c8261b7a5fbd24d713dbde6265932f11d716d9b066ffa9",
    "fidelity-relation --kind distinguishable --n 3 --format json":
        "9f371e88bf2e18765f40bca90469b76d30d37e30f03e1f26787adf1748a86324",
    "fidelity-relation --kind distinguishable --n 3 --format csv":
        "7d6c2b717691b4cfe490ba5d9410d1d97ad214d04d29544f17cc87eaa7d5b763",
    "fidelity-relation --kind indistinguishable --n 1 --format json":
        "ccee952452a01586980ecbdefc94ec8ad3b17c51437199fea934d23d30665f4b",
    "fidelity-relation --kind indistinguishable --n 1 --format csv":
        "e492f3ccaefb3f5308dfa109948eb5b727e6ffc38e3be6352ffcddc5fe8df994",
    "fidelity-relation --kind indistinguishable --n 2 --format json":
        "30ca89ce05e1ab1b03736cfcb68a25569fcac88371c563a697f577fb6ec3fd9c",
    "fidelity-relation --kind indistinguishable --n 2 --format csv":
        "d332a7f7a6ee8604f6fe5e8abee58e92e1f5a43a43d2ba0a901ca2846eb15cad",
    "fidelity-relation --kind indistinguishable --n 3 --format json":
        "cd743322c6deaa76ecc5455db22afb248443fc360d6f5c3b8381d639304cd71e",
    "fidelity-relation --kind indistinguishable --n 3 --format csv":
        "a55a26fa34bfa27d208a0d311447c9b11472554bd3131ce0b059782764d9f90a",
    "fidelity-relation --kind distinguishable --n 4 --format json":
        "6baf492f01ad621cb4600afd530bb8fb7d818f64a1268cf58a17b029fa1b1187",
    "fidelity-relation --kind distinguishable --n 4 --format csv":
        "a9ba0cf844bda41b9b960c09498cc302340f7918e120be43ba639305fd8a68ac",
    "fidelity-relation --kind indistinguishable --n 4 --format json":
        "1f4aa8d264b70e07b69275d5f1376e17217f7e46ab509a96acc154329f1d29eb",
    "fidelity-relation --kind indistinguishable --n 4 --format csv":
        "ffc3bad75353f59f5f466e04facbc5625ba49c13c77afeb25d721974f27223fa",
    "fidelity-relation --kind distinguishable --n 5 --points 2 --format json":
        "4a5d3af71da6ed6df1375c1597624c87de10baaa8e8e954e9d9045e9f6816f12",
    "fidelity-relation --kind distinguishable --n 5 --points 2 --format csv":
        "9e49535a344ed64bf769f46bb5ae85264e8ed93bea9c9a1ed8c5a7295ebc6214",
    "fidelity-relation --kind indistinguishable --n 5 --points 2 --format json":
        "da9d53bffb7aaf6481323eed2d07d0e60343d58ae71ac1d715c0bad3fba1efcd",
    "fidelity-relation --kind indistinguishable --n 5 --points 2 --format csv":
        "1510a72935294db8b90f77ef7e552aca67a13bbd8fb8445766a1d0ba5bcb71e1",
    "sf-bound --n 1":
        "cdee5769d82bec22e975ae6fd21ff01739977df1fdf483767e2b3acd8e2da3a9",
    "sf-bound --n 2":
        "bef47d92f7a9ee8575fde39ae5657fa3aedaf3a185d232b021be64df30347b8f",
    "sf-bound --n 3":
        "84c42e824272b73cc7387b5bf4b3db9f458730cac97c108d8b568ad47abf5239",
}

PUBLIC_DIGESTS = {
    ("distinguishable", 1):
        "ba9141eea6c06b6ced14d1bb9366e038533c6321e47fa374632e8d2af2e08ee7",
    ("distinguishable", 2):
        "3814422f873bdbfdbf5b57dc4ae3f43577ec23fbb73bca02cce10f829cd214aa",
    ("distinguishable", 3):
        "40decf0d2b08cd9239d749ae01770c12c29020a6e3dfa90eb6776a9a23fb611a",
    ("indistinguishable", 1):
        "504e1aceef013c65522759de35a1e5e41f7c90e28345696673a679f100eaa476",
    ("indistinguishable", 2):
        "372b562912d71d30f582ed9e8149d6e9eedc691d4c2f28f85b0243dba7c059e7",
    ("indistinguishable", 3):
        "16e6efcc9c3eb9575d6e06a7e6981e5a5e2b84f40ec608ab9358d1eb723b5f52",
}


@pytest.mark.parametrize("argv", sorted(DIGESTS),
                         ids=lambda argv: argv.removeprefix("fidelity-relation "))
def test_relation_record_bytes(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv.split(" "))
    assert rc == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[argv]


@pytest.mark.parametrize("kind, n", sorted(PUBLIC_DIGESTS))
def test_public_relation_values_bytes(kind, n):
    layout = fidelity.ChannelLayout(kind, n)
    lines = []
    for p in (0.0, 0.37, 0.9):
        dm = fidelity.two_param_state(p, layout)
        lines.append(repr((fidelity.generalized_teleportation_fidelity(dm, layout),
                           fidelity.generalized_singlet_fraction(dm, layout))))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PUBLIC_DIGESTS[kind, n]
