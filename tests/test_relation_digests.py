"""`fidelity-relation` and `sf-bound` print their recorded bytes.

The benchmark's digest table (`benchmarks/cli_digests.json`) has no
`fidelity-relation` or `sf-bound` argv, so their records are pinned here,
keyed by full argv (test ids drop the leading `fidelity-relation`): for
`fidelity-relation` of both kinds at n = 1-4, in JSON and CSV, and at n = 5
with `--points 2`, and for `sf-bound --n 1/2/3`, the exit code is 0 and the
SHA-256 of stdout is the one recorded before the pair measurements were
shared across equal pair matrices (n = 4: before the grid memo; n = 5 and
`sf-bound`: before a product basis carried its own slots).  Every field
counts, `residual` round-off included.

`relation_check` reduces each state itself, so the records above bypass the
one-entry grid memo of `generalized_teleportation_fidelity` and
`generalized_singlet_fraction`.  `PUBLIC_DIGESTS` pins those two functions,
called back to back on one state as the benchmark's `relation` op calls
them: for every (kind, n) group of that op's mix, the SHA-256 of
`repr((f_g, F_g))` at p = 0, 0.37 and 0.9, one line each, recorded before
the memo was added.

`residual` passes through LAPACK (svd, det) and BLAS products, whose last
bits can depend on the numpy build and on the OpenBLAS kernel picked for the
CPU.  The digests were recorded with CPython 3.11.7, numpy 2.4.6 and its
bundled OpenBLAS 0.3.31 (DYNAMIC_ARCH) on an x86-64 Intel Xeon.  A mismatch
under another build or CPU may be an environment difference rather than a
code change: run the same argv at the parent commit in that environment
before reading it as a regression.
"""

import contextlib
import hashlib
import io

import pytest

from qdof import fidelity
from qdof.cli import main

DIGESTS = {
    "fidelity-relation --kind distinguishable --n 1 --format json":
        "c2fc33f658c3be2a163b49651471cd5161654fd2f60baba4ab9117adc32e68bd",
    "fidelity-relation --kind distinguishable --n 1 --format csv":
        "9dea977180970dfd6cce184f88e3235bde9e2e48c17680e2c3849f73ec69899f",
    "fidelity-relation --kind distinguishable --n 2 --format json":
        "3b1d173f66e0c93d3e7a8f164aa7025848201a70f8fcc3c138b14ce748ea68b5",
    "fidelity-relation --kind distinguishable --n 2 --format csv":
        "2efc013f4ce233efdd480d71d61fe3b87c6e3f6a4b7ab8b95f813a376a09091c",
    "fidelity-relation --kind distinguishable --n 3 --format json":
        "0e133d52c85522404aafd89f396cab473239a7bb856fb50711f2e4fb05728d10",
    "fidelity-relation --kind distinguishable --n 3 --format csv":
        "8dbfa16675301e6e5ca457fe408d7305db5a43f65f47941ced7f0103b781131f",
    "fidelity-relation --kind indistinguishable --n 1 --format json":
        "6b132068a354085e55d0aedd9d63e4047f25a529b9c52da70778d353eb56ac6c",
    "fidelity-relation --kind indistinguishable --n 1 --format csv":
        "9e1e5d64d45fc4ee2bf91eca72695c16bf137a3c89daa0045e0e77a24839abf8",
    "fidelity-relation --kind indistinguishable --n 2 --format json":
        "f068739ee586fc930b47253af7e62601e101c52dd8fdd9473f705eba5205f932",
    "fidelity-relation --kind indistinguishable --n 2 --format csv":
        "438a8366dabd37321fb18e5c8649ef4bf51bff8d31a14f9cacbd8e7c8a8830fc",
    "fidelity-relation --kind indistinguishable --n 3 --format json":
        "3e04073bcfc4b85c4d9a7a2b3b70adcf530ff331d1d3fdf39266591a7d202d8b",
    "fidelity-relation --kind indistinguishable --n 3 --format csv":
        "b7723b2766a5adb7943dacb03e260860b4b3fe690f3e565571a85476e45c87d4",
    "fidelity-relation --kind distinguishable --n 4 --format json":
        "09ad0dd8b70da7809d7f82cc39ed42890e0cfe5ebe66fbc79f0a3cc227a93ad4",
    "fidelity-relation --kind distinguishable --n 4 --format csv":
        "0dd75c6e37dd4403fb5cd01454d6d6f95f51b2513f33b6d5c034eb8b29987367",
    "fidelity-relation --kind indistinguishable --n 4 --format json":
        "605654890b3c6ea1e29e2258e4c28b460d5f33d4581f64e60a6426c58fded550",
    "fidelity-relation --kind indistinguishable --n 4 --format csv":
        "992fbf5cb7878ae1a3adca193ebdd18793070109f13561e3be230778393100a8",
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
