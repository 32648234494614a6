"""One closed-loop client in a fresh interpreter.

Reads a JSON list of argv lists on stdin, imports ``openwdvv.cli`` from the
checkout's ``src`` (timing the import), sends the requests one after another
to ``openwdvv.cli.main`` and prints one JSON object with what it saw.
Output digests and report parsing happen after the timed loop.

The host's speed drifts by a factor of up to two within seconds (see
NOTES.md), so the import and the requests of an untraced iteration are
timed *scaled*: in seconds on a host that runs a fixed reference block (a sparse polynomial product on builtin
dicts and ints; no ``openwdvv`` code, no imports) in ``REF_NOMINAL_S``.
From start to end a timer interrupts every ``REF_PERIOD_S`` and times one
reference block.  A span's scaled time is its raw time, less the reference
blocks inside it, times ``REF_NOMINAL_S`` and the mean reciprocal block
time within ``REF_WINDOW_S`` of it.  The client idles for
``REF_WINDOW_S`` before and after the import, so that the import has
blocks on both sides.

    python3 perfbench/client.py [--setup-only] [--trace]
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import traceback
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REF_NOMINAL_S = 170e-6  # reference block time that scaled times assume
REF_PERIOD_S = 0.02  # one reference block per period
REF_WINDOW_S = 0.1  # blocks this close to a span gauge its host speed


# Terms (i, j, coefficient) of the two factors of the reference block, and
# the exponent tuples of its product, built once: the block itself makes no
# new container, so it moves no garbage-collection pass of the program.
_REF_A = [(i, j, 7 * i + j + 1) for i in range(6) for j in range(6)]
_REF_B = [(i, j, i - j + 3) for i in range(4) for j in range(4)]
_REF_KEYS = [(i, j) for i in range(9) for j in range(9)]
_REF_OUT = {}


def _reference_block():
    """Sparse polynomial product on a dict of exponent tuples, the shape of
    the exactalg kernel's work, written here so it shares no code with it."""
    out = _REF_OUT
    out.clear()
    for i, j, x in _REF_A:
        for k, l, y in _REF_B:
            key = _REF_KEYS[9 * (i + k) + j + l]
            out[key] = out.get(key, 0) + x * y


class HostSpeed:
    """Reference blocks timed on a timer signal, interleaved with requests."""

    def __init__(self):
        self.starts, self.durations = [], []

    def _tick(self, *_):
        self.starts.append(perf_counter())
        _reference_block()
        self.durations.append(perf_counter() - self.starts[-1])

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def idle(self, seconds: float):
        end = perf_counter() + seconds
        while perf_counter() < end:
            pass

    def raw(self, a: float, b: float) -> float:
        """Time in [a, b] spent outside reference blocks."""
        lo, hi = bisect_left(self.starts, a), bisect_left(self.starts, b)
        return b - a - sum(self.durations[lo:hi])

    def scaled(self, a: float, b: float) -> float:
        """Time in [a, b] outside reference blocks, at the nominal speed.

        Each stretch of raw time does as much work as 1/d reference blocks
        per second, d being the block time nearby, so the work in [a, b] is
        the raw time times the mean of 1/d over the blocks near it.
        """
        lo = bisect_left(self.starts, a - REF_WINDOW_S)
        hi = bisect_right(self.starts, b + REF_WINDOW_S)
        near = self.durations[lo:hi] or self.durations
        return self.raw(a, b) * REF_NOMINAL_S * statistics.fmean(1 / d for d in near)


def _import_cli(host: HostSpeed):
    """Import openwdvv.cli from the checkout; (module, raw s, scaled s)."""
    sys.path.insert(0, str(SRC))
    host.idle(REF_WINDOW_S)
    t0 = perf_counter()
    import openwdvv.cli as cli

    t1 = perf_counter()
    host.idle(REF_WINDOW_S)
    where = Path(cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"openwdvv was imported from {where}, not from {SRC}")
    return cli, host.raw(t0, t1), host.scaled(t0, t1)


def _reports(text: str) -> list:
    """(checked, ok) of the top-level report in a verify/obstruction output."""
    text = text.strip()
    if text.startswith("{"):
        obj = json.loads(text)
        return [obj["checked"], obj["ok"] and not obj["failures"]]
    last = text.splitlines()[-1]
    head, _, tail = last.rpartition(": pass (")
    if not head or not tail.endswith(" identities)"):
        return [None, False]
    return [int(tail[: -len(" identities)")]), True]


def main() -> int:
    setup_only = "--setup-only" in sys.argv
    trace = "--trace" in sys.argv
    reqs = [] if setup_only else json.load(sys.stdin)
    host = HostSpeed()
    host.start()
    cli, setup_raw_s, setup_s = _import_cli(host)
    if setup_only:
        host.stop()
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    tracer = None
    if trace:
        from layers import Tracer

        tracer = Tracer().install()

    # Traced iterations run their requests without reference blocks, so
    # that no span absorbs their time; their figures are raw.
    if tracer is not None:
        host.stop()
    outs, spans, codes, errors = [], [], [], []
    t_start = perf_counter()
    for i, argv in enumerate(reqs):
        if tracer is not None:
            tracer.request = i
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse refused the request
                rc = f"SystemExit({exc.code})"
            except Exception:  # a traceback is a failed request, not a crash
                rc = "exception"
                err.write(traceback.format_exc())
        spans.append((t0, perf_counter()))
        codes.append(rc)
        outs.append(out.getvalue())
        errors.append(err.getvalue())
    t_end = perf_counter()
    host.stop()

    if tracer is None:
        latencies = [host.scaled(a, b) for a, b in spans]
        wall_raw_s = host.raw(t_start, t_end)
    else:
        latencies = [b - a for a, b in spans]
        wall_raw_s = t_end - t_start
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        # The gaps between requests are the client's own bookkeeping.
        "wall_s": sum(latencies),
        "wall_raw_s": wall_raw_s,
        "ref_blocks": len(host.durations),
        "latency_s": latencies,
        "rc": codes,
        "digest": [hashlib.sha256(o.encode()).hexdigest()[:16] for o in outs],
        "stderr": errors,
        "report": [
            _reports(o) if argv[0] in ("verify", "obstruction") and rc == 0 else None
            for argv, o, rc in zip(reqs, outs, codes)
        ],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = tracer.finish()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
