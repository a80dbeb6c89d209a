"""Record the digests of every commands-workload report.

    python3 benchmarks/record_digests.py

Writes benchmarks/digests.json: for each op, the exit code and the SHA-256
of its --json report.  The commands workload then requires every report to
be byte-identical to the recorded one.  Run it only on a commit whose
reports are known to be right, and say so when committing the file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(BENCH_DIR))

import oretower  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    digests = {
        key: workloads.digest(workloads.run_command(oretower, argv))
        for key, _fixture, argv in workloads.command_keys(ROOT)
    }
    out = {"recorded_at": run.git_commit(ROOT), "digests": digests}
    workloads.DIGESTS_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests at {out['recorded_at']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
