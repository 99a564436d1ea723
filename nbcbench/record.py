"""Write expected/<workload>.json: each workload command's exit code and
parsed report under the default element order.

    python3 nbcbench/record.py [workload ...]

The committed files hold the reports of the commit that introduced the
benchmark.  Re-record only when a change to the CLI's output is intended and
reviewed: the benchmark's correctness check is exactly these files.
"""

from __future__ import annotations

import json
import sys

from run import SRC, cap_blas_threads, run_command
from workloads import EXPECTED_DIR, WORKLOADS


def main(names) -> int:
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    from nbcwalk import cli

    EXPECTED_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        entries = []
        for command in WORKLOADS[name].commands:
            code, stdout, error = run_command(cli, list(command.argv))
            if error:
                print(f"error: {' '.join(command.argv)} raised:\n{error}", file=sys.stderr)
                return 1
            entries.append({"argv": list(command.argv), "exit": code, "report": json.loads(stdout)})
        path = EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps({"commands": entries}, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path.name}: {len(entries)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
