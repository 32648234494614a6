"""The traced benchmark (perfbench/layers.py) wraps library functions by
module and attribute name, and its finish() reads their caches and
counters; a renamed or moved function must fail here, in tier-1, and not
only in a traced benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_library():
    # install() rebinds module globals for the whole interpreter, so it runs
    # in a child process
    probe = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
        "from layers import Tracer\n"
        "Tracer().install()\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr


def test_tracer_finish_reads_its_counters():
    probe = (
        "import contextlib, io, json, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
        "from layers import Tracer\n"
        "tracer = Tracer().install()\n"
        "from openwdvv import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(['verify', 'wdvv', 'B', '3'])\n"
        "print(json.dumps({'rc': rc, 'values': tracer.finish()['values']}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    values = got["values"]
    assert got["rc"] == 0
    assert values["coxeter.coxeter_structure.misses"] == 1
    assert values["exactalg.add.calls"] > 0
    assert values["saito.verify_wdvv.checked"] == 15
