"""`fidelity-relation` prints its recorded bytes.

The benchmark's digest table (`benchmarks/cli_digests.json`) has no
`fidelity-relation` argv, so the relation records are pinned here: for both
kinds at n = 1-3, in JSON and CSV, the exit code is 0 and the SHA-256 of
stdout is the one recorded before the pair measurements were shared across
equal pair matrices.  Every field counts, `residual` round-off included.

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

from qdof.cli import main

DIGESTS = {
    "--kind distinguishable --n 1 --format json":
        "c2fc33f658c3be2a163b49651471cd5161654fd2f60baba4ab9117adc32e68bd",
    "--kind distinguishable --n 1 --format csv":
        "9dea977180970dfd6cce184f88e3235bde9e2e48c17680e2c3849f73ec69899f",
    "--kind distinguishable --n 2 --format json":
        "3b1d173f66e0c93d3e7a8f164aa7025848201a70f8fcc3c138b14ce748ea68b5",
    "--kind distinguishable --n 2 --format csv":
        "2efc013f4ce233efdd480d71d61fe3b87c6e3f6a4b7ab8b95f813a376a09091c",
    "--kind distinguishable --n 3 --format json":
        "0e133d52c85522404aafd89f396cab473239a7bb856fb50711f2e4fb05728d10",
    "--kind distinguishable --n 3 --format csv":
        "8dbfa16675301e6e5ca457fe408d7305db5a43f65f47941ced7f0103b781131f",
    "--kind indistinguishable --n 1 --format json":
        "6b132068a354085e55d0aedd9d63e4047f25a529b9c52da70778d353eb56ac6c",
    "--kind indistinguishable --n 1 --format csv":
        "9e1e5d64d45fc4ee2bf91eca72695c16bf137a3c89daa0045e0e77a24839abf8",
    "--kind indistinguishable --n 2 --format json":
        "f068739ee586fc930b47253af7e62601e101c52dd8fdd9473f705eba5205f932",
    "--kind indistinguishable --n 2 --format csv":
        "438a8366dabd37321fb18e5c8649ef4bf51bff8d31a14f9cacbd8e7c8a8830fc",
    "--kind indistinguishable --n 3 --format json":
        "3e04073bcfc4b85c4d9a7a2b3b70adcf530ff331d1d3fdf39266591a7d202d8b",
    "--kind indistinguishable --n 3 --format csv":
        "b7723b2766a5adb7943dacb03e260860b4b3fe690f3e565571a85476e45c87d4",
}


@pytest.mark.parametrize("args", sorted(DIGESTS))
def test_relation_record_bytes(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(["fidelity-relation"] + args.split(" "))
    assert rc == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[args]
