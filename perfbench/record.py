"""Record the reference digests and enclosures that run.py checks outputs against.

    python3 perfbench/record.py

Runs every workload once per seed in SEEDS, without comparing against
references, and writes perfbench/references.json. Seed-independent outputs
must agree across all seeds. Record only at a commit whose outputs are known
to be right: every later run is judged against this file.
"""

from __future__ import annotations

import json
import platform
import sys

from run import REFERENCES, WORKLOADS, commit, spawn, workspace

SEEDS = range(16)


def main() -> int:
    fixed, seeded, enclosures = {}, {}, {}
    with workspace() as workdir:
        for workload in WORKLOADS:
            for seed in SEEDS:
                result, _ = spawn(workload, seed, workdir, references=False)
                if result["failed"]:
                    print(f"{workload} seed {seed} fails its checks: {result['problems']}", file=sys.stderr)
                    return 1
                for table, new in ((fixed, result["digests"]), (enclosures, result["enclosures"])):
                    for op, value in new.items():
                        if table.setdefault(op, value) != value:
                            print(f"{op} differs between seeds: {table[op]} vs {value}", file=sys.stderr)
                            return 1
                seeded.setdefault(str(seed), {}).update(result["seeded_digests"])
                print(f"recorded {workload} seed {seed}", file=sys.stderr)
    references = {
        "recorded_at": {"commit": commit(), "python": platform.python_version()},
        "fixed": fixed,
        "seeded": seeded,
        "enclosures": enclosures,
    }
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
