"""Every argv of the benchmark's CLI workload prints its recorded bytes.

`benchmarks/cli_digests.json` maps each argv, joined by spaces, to the exit
code and the SHA-256 of the stdout recorded when the printed records were
fixed.  Replaying them all through `qdof.cli.main` makes byte-identical
output a test verdict.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from qdof.cli import main

DIGESTS = Path(__file__).resolve().parent.parent / "benchmarks" / "cli_digests.json"


def test_every_recorded_argv_prints_identical_bytes():
    table = json.loads(DIGESTS.read_text())
    assert table
    mismatches = []
    for key, want in sorted(table.items()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main(key.split(" "))
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if (rc, digest) != (want["rc"], want["sha256"]):
            mismatches.append(key)
    assert not mismatches
