"""Every request the benchmark's workloads can generate, replayed through
the CLI against the table of recorded replies (perfbench/expected.json).
A changed exit code or stdout fails here, in tier-1, and not only as an
incorrect benchmark run.  The test only reads perfbench/."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"

# one interpreter for all requests, as a benchmark client runs them;
# an argparse refusal is recorded as its SystemExit, as the client does
PROBE = """
import contextlib, hashlib, io, json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import workloads
from openwdvv import cli

replies = []
for name in ("build", "sweep", "session"):
    for argv, _ in workloads.domain(name):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = f"SystemExit({{exc.code}})"
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
        replies.append([" ".join(argv), rc, digest])
print(json.dumps(replies))
"""


def test_replies_match_the_recorded_table():
    probe = PROBE.format(bench=str(BENCH), src=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED="0"),
        timeout=600,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    replies = json.loads(out.stdout.splitlines()[-1])
    expected = json.loads((BENCH / "expected.json").read_text())
    assert len(replies) == 792
    wrong = [
        f"{key}: [{rc}, {digest}] != {expected.get(key)}"
        for key, rc, digest in replies
        if expected.get(key) != [rc, digest]
    ]
    assert not wrong, "\n".join(wrong[:20])
