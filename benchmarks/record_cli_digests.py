"""Record the exit code and stdout SHA-256 of every argv the cli workload issues.

The cli workload counts an op as failed when its stdout differs from the
digest written here, which enforces the byte-identical output contract.  Run
this only when a change to the printed records is intended:

    python3 benchmarks/record_cli_digests.py
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qdof.cli  # noqa: E402

from workloads import DIGESTS_PATH, argv_key, cli_argvs, run_cli  # noqa: E402


def main():
    table = {}
    for argv in cli_argvs():
        rc, stdout = run_cli(qdof.cli.main, argv)
        if rc != 0:
            sys.exit(f"{argv_key(argv)!r} exited with {rc}; "
                     "the workload must issue only succeeding commands")
        table[argv_key(argv)] = {"rc": rc, "bytes": len(stdout),
                                 "sha256": hashlib.sha256(stdout).hexdigest()}
    DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} digests in {DIGESTS_PATH.name}")


if __name__ == "__main__":
    main()
