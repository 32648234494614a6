"""The traced benchmark (perfbench/layers.py) wraps library functions by
module and attribute name; a renamed or moved function must fail here, in
tier-1, and not only in a traced benchmark run."""

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
