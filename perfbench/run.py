"""The openwdvv benchmark: end-to-end and per-layer figures for one workload.

    python3 perfbench/run.py --workload {sweep,build,session} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each iteration starts ``client.py`` in a
fresh interpreter, so every ``lru_cache`` starts empty, as it does for each
CLI invocation; the client is one closed loop that sends the next request
only after the previous reply.  Iterations repeat while the next one is
expected to end within ``--seconds`` (at least one runs).  Every reply is
checked against ``expected.json`` (exit code and stdout digest, recorded by
``record.py`` at the commit that added the benchmark).

The last stdout line is one JSON object.  With ``--trace 0`` it carries
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` each step
runs an untraced and a traced iteration on the same requests and the line
carries the per-layer metrics, and the span tree of the first traced
iteration is written to ``.perfbench/trace-<workload>-seed<N>.json``.
End-to-end times are scaled to a nominal host speed by reference blocks
timed between the requests (``client.py``); the summary lines also give
the unscaled medians.  See NOTES.md for the choice of workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 2  # import-only interpreters after each iteration, for setup_s
SWEEP_IDENTITIES = 7424  # identities `verify all --max-rank 6` must report
RUN_LIMIT_S = 170  # every child is killed past this point of the run


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _child(flags: list, requests: list, started: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "client.py"), *flags],
            input=json.dumps(requests),
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=max(1.0, RUN_LIMIT_S - (perf_counter() - started)),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"client did not finish within {RUN_LIMIT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"client exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _check(workload: str, reqs: list, res: dict, expected: dict) -> list:
    """Failure messages for one iteration, one per failed request."""
    failures = []
    for i, (argv, want_rc) in enumerate(reqs):
        key = " ".join(argv)
        rc, digest, report = res["rc"][i], res["digest"][i], res["report"][i]
        want = expected.get(key)
        if want is None:
            failures.append(f"{key}: no recorded output")
        elif rc != want_rc or rc != want[0]:
            failures.append(f"{key}: exit {rc}, expected {want_rc}: {res['stderr'][i]}")
        elif digest != want[1]:
            failures.append(f"{key}: stdout digest {digest} != recorded {want[1]}")
        elif rc == 2 and not res["stderr"][i].startswith("error: "):
            failures.append(f"{key}: refusal without an error message")
        elif report is not None and not report[1]:
            failures.append(f"{key}: report does not pass")
        elif workload == "sweep" and report[0] != SWEEP_IDENTITIES:
            failures.append(f"{key}: {report[0]} identities, expected {SWEEP_IDENTITIES}")
    return failures


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _rank(values: list, p: int) -> float:
    """Nearest-rank p-th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-p * len(ordered) // 100) - 1)]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    started = perf_counter()

    iters, traced, setups, setups_raw, failures, attempted = [], [], [], [], [], 0
    combined = hashlib.sha256()
    while True:
        reqs = workloads.requests(workload, seed, len(iters))
        argvs = [argv for argv, _ in reqs]
        res = _child([], argvs, started)
        iters.append(res)
        setups.append(res["setup_s"])
        setups_raw.append(res["setup_raw_s"])
        attempted += len(reqs)
        failures += _check(workload, reqs, res, expected)
        if len(iters) == 1:
            for argv, digest in zip(argvs, res["digest"]):
                combined.update(f"{' '.join(argv)}\t{digest}\n".encode())
        if trace:
            tres = _child(["--trace"], argvs, started)
            traced.append(tres)
            attempted += len(reqs)
            failures += _check(workload, reqs, tres, expected)
            if len(traced) == 1:
                out = ROOT / ".perfbench" / f"trace-{workload}-seed{seed}.json"
                out.parent.mkdir(exist_ok=True)
                out.write_text(json.dumps(tres["trace"]))
        # Spread over the run, so they sample the host at different times.
        for _ in range(SETUP_SAMPLES):
            sres = _child(["--setup-only"], [], started)
            setups.append(sres["setup_s"])
            setups_raw.append(sres["setup_raw_s"])
        spent = perf_counter() - started
        if spent + spent / len(iters) > seconds:
            break

    walls = [r["wall_s"] for r in iters]
    # Each end-to-end metric is the median of its samples in this run.
    samples = {
        "wall_s": walls,
        "req_p50_ms": [_rank(r["latency_s"], 50) * 1000 for r in iters],
        "req_p90_ms": [_rank(r["latency_s"], 90) * 1000 for r in iters],
        "peak_rss_mb": [r["peak_rss_mb"] for r in iters],
        "setup_s": setups,
    }
    identities = [
        sum(rep[0] for rep in r["report"] if rep is not None and rep[1]) for r in iters
    ]
    for msg in failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(
        f"workload={workload} seed={seed} iterations={len(iters)} "
        f"requests/iteration={len(iters[0]['rc'])} "
        f"setup samples={len(setups)} identities/iteration={identities[0]} "
        f"output digest={combined.hexdigest()[:16]}"
    )
    for m in bench["end_to_end"]:
        values = samples[m["name"]]
        q1, q2, q3 = _quartiles(values)
        print(
            f"  {m['name']} = {q2:.6g} {m['unit']} "
            f"(n={len(values)} min {min(values):.6g} q1 {q1:.6g} q3 {q3:.6g})"
        )
    print(
        f"  unscaled: wall_s = {statistics.median(r['wall_raw_s'] for r in iters):.6g} s, "
        f"setup_s = {statistics.median(setups_raw):.6g} s "
        f"(reference blocks/iteration = {iters[0]['ref_blocks']})"
    )
    # Printed for every run but not metrics of BENCHMARK.json: the first is
    # zero on `build`, the second on correct code (see NOTES.md).
    rate = statistics.median(n / w for n, w in zip(identities, walls))
    print(f"  identities_per_s = {rate:.6g} 1/s")
    print(f"  failed_frac = {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")

    if trace:
        metrics = {}
        values = [t["trace"]["values"] for t in traced]
        for m in bench["per_layer"]:
            name, unit = m["name"], m["unit"]
            if name == "trace.overhead_s":
                value = statistics.median(
                    t["wall_raw_s"] - u["wall_raw_s"] for t, u in zip(traced, iters)
                )
            elif unit == "s":
                value = statistics.median(v[name] for v in values)
            else:  # counts repeat exactly for the same requests
                value = values[0][name]
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
            for m in bench["end_to_end"]
        }
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        for need in (ROOT / "src" / "openwdvv" / "cli.py", ROOT / "BENCHMARK.json", HERE / "expected.json"):
            if not need.is_file():
                raise BenchError(f"missing {need}; run from a checkout of openwdvv")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
