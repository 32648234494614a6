"""Record expected.json: exit code and stdout digest of every request any
seed can generate, for all workloads.

    python3 perfbench/record.py

Run it only at a commit whose outputs are known to be right (the table in
the repository was recorded at the commit that added the benchmark).  A
later commit that changes output on purpose re-records it in its own change.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import workloads
from run import HERE, SWEEP_IDENTITIES, _child


def main() -> int:
    table = {}
    for name in workloads.WORKLOADS:
        reqs = workloads.domain(name)
        res = _child([], [argv for argv, _ in reqs], perf_counter())
        for i, (argv, want_rc) in enumerate(reqs):
            rc, report = res["rc"][i], res["report"][i]
            if rc != want_rc or (report is not None and not report[1]):
                print(f"{' '.join(argv)}: exit {rc}: {res['stderr'][i]}", file=sys.stderr)
                return 1
            if name == "sweep" and report[0] != SWEEP_IDENTITIES:
                print(f"sweep reports {report[0]} identities", file=sys.stderr)
                return 1
            table[" ".join(argv)] = [rc, res["digest"][i]]
        print(f"{name}: {len(reqs)} requests in {res['wall_s']:.1f} s")
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items())]
    (HERE / "expected.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
