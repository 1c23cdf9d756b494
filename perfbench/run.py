"""biopoly benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli-sampled --seed 1 --seconds 30 --trace 0

Run from the root of a biopoly checkout; the library is imported from
``src/`` of that checkout.  A single closed-loop client sends one request
at a time.  The timed phase sends whole periods of the workload's case
list (see workloads.py): round(seconds / period_s) of them, at least one,
where period_s is what one period took when the benchmark was defined.
So a run lasts about ``--seconds`` at that commit, and every commit,
traced or not, is measured on the same requests.

``setup_s`` is the median import time of fresh interpreters probed at
even steps between the requests of an untraced run, so that it samples
the machine over the same window as the other metrics; probe time is
left out of every latency and of the elapsed time.

After the timed phase every output goes through the exactness gate; on
the default seed the outputs must also match the stored digests.  A run
is correct only if the gate passes and every failed request is one of
``workloads.EXPECTED_FAILURES``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``, with the
end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
SHARES_PREFIX = "  self-time shares: "
SETUP_PROBES = 15
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import biopoly, biopoly.cli; "
                "print(repr(time.perf_counter() - t))")


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_time(env: dict) -> float:
    """Wall time of ``import biopoly, biopoly.cli`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (percentile,
    value, samples beyond).  Below eleven samples it falls back to the max."""
    ordered = sorted(latencies)
    n = len(ordered)
    i = max(n - 11, 0) if n > 10 else n - 1
    return 100.0 * (i + 1) / n, ordered[i], n - 1 - i


def run_timed(workload, periods: int, recorder, env: dict | None) -> dict:
    """The closed loop: one request at a time, whole periods.

    With ``env`` set, SETUP_PROBES import probes are spread evenly between
    the requests (after every request if there are fewer); their time is
    not part of any latency, period or the elapsed time.
    """
    from workloads import Outcome, describe_exception
    requests = []            # (case, outcome, latency)
    first_period = set()
    period_s = []
    setup = []
    probe_s = 0.0
    total = periods * len(workload.cases)
    start = time.perf_counter()
    for p in range(periods):
        period_start = time.perf_counter()
        period_probe_s = probe_s
        for case in workload.period(p):
            req_id = len(requests)
            if recorder is not None:
                recorder.request = req_id
                span = recorder.open(tracing.REQUEST)
            t0 = time.perf_counter()
            try:
                outcome = workload.execute(case, req_id, recorder)
            except Exception:  # a request that raises is a failed request
                outcome = Outcome(True, describe_exception())
            latency = time.perf_counter() - t0
            if recorder is not None:
                recorder.close(span)
                recorder.request = None
            if p == 0:
                first_period.add(req_id)
            requests.append((case, outcome, latency))
            done = len(requests)
            if env is not None and (done * SETUP_PROBES // total
                                    > (done - 1) * SETUP_PROBES // total):
                t0 = time.perf_counter()
                setup.append(import_time(env))
                probe_s += time.perf_counter() - t0
        period_s.append(time.perf_counter() - period_start - (probe_s - period_probe_s))
    return {"requests": requests, "elapsed": time.perf_counter() - start - probe_s,
            "first_period": first_period, "period_s": period_s, "setup": setup}


def gate(workload, requests, record_digests: bool) -> tuple[bool, set, list[str]]:
    """Exactness gate over every output; returns (passed, failed ids, notes).

    Each case's first output is checked in full; a repeat of the case must
    reproduce the first output's digest exactly.  On the default seed the
    first digests must equal the stored ones.
    """
    stored = {}
    if DIGESTS.exists():
        stored = json.loads(DIGESTS.read_text()).get(workload.name, {})
    compare = workload.seed == DEFAULT_SEED and not record_digests
    seen = {}
    bad_ids, notes = set(), []
    for req_id, (case, outcome, _) in enumerate(requests):
        if outcome.failed:
            continue
        try:
            d = workload.digest(case, outcome)
            if case.key in seen:
                problems = [] if d == seen[case.key] else [
                    "output differs from the first output of this case"]
            else:
                seen[case.key] = d
                problems = workload.check(case, outcome)
                if compare and d is not None and case.key not in stored:
                    problems.append("no stored default-seed digest for this case")
                elif compare and d is not None and stored[case.key] != d:
                    problems.append("digest differs from the stored default-seed digest")
        except Exception:  # an unreadable output is a failed check
            from workloads import describe_exception
            problems = [f"check raised: {describe_exception()}"]
        if problems:
            bad_ids.add(req_id)
            notes.append(f"{case.key}: {'; '.join(problems)}")
    if record_digests and workload.seed == DEFAULT_SEED:
        table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        table[workload.name] = {k: v for k, v in seen.items() if v is not None}
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return not bad_ids, bad_ids, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store the default seed's output digests")
    args = parser.parse_args()

    if not (SRC / "biopoly" / "__init__.py").is_file():
        print(f"run.py: no biopoly sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:          # before numpy is first imported
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = child_env()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        import biopoly.cli  # noqa: F401  (the in-process client pays imports once)
        recorder = None
        if args.trace:
            recorder = tracing.Recorder()
            tracing.install(recorder)
        workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, WORK, env)
        workload.prepare()
        periods = max(1, round(args.seconds / workload.period_s))
        timed = run_timed(workload, periods, recorder, None if args.trace else env)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF if workload.in_process
                                     else resource.RUSAGE_CHILDREN).ru_maxrss
        requests = timed["requests"]
        exact, bad_ids, notes = gate(workload, requests, args.record_digests)
        failed_ids = {i for i, r in enumerate(requests) if r[1].failed} | bad_ids
        unexpected = sorted({requests[i][0].key for i in failed_ids}
                            - workloads.EXPECTED_FAILURES)
        correct = exact and not unexpected
        metrics = summarize(args, workload, timed, periods, failed_ids, unexpected,
                            peak_kb, recorder, notes, correct)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": len(requests),
                      "failed": len(failed_ids), "metrics": metrics}))
    return 0


def summarize(args, workload, timed, periods, failed_ids, unexpected, peak_kb,
              recorder, notes, correct) -> dict:
    requests = timed["requests"]
    latencies = [r[2] for r in requests]
    attempted = len(requests)
    elapsed = timed["elapsed"]
    throughput = (attempted - len(failed_ids)) / elapsed
    pct, tail_value, beyond = tail(latencies)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} requests in {periods} periods, {elapsed:.2f} s "
          f"({', '.join(f'{t:.2f}' for t in timed['period_s'])})")
    for req_id in sorted(failed_ids):
        case, outcome = requests[req_id][0], requests[req_id][1]
        print(f"  failed request {req_id} {case.key}: {outcome.note or 'exactness'}")
    for note in notes:
        print(f"  exactness: {note}")
    if args.seed != DEFAULT_SEED:
        pinned = ""
    elif args.record_digests:
        pinned = " (default seed: digests recorded)"
    else:
        pinned = " (default seed: outputs compared with stored digests)"
    if unexpected:
        print(f"  unexpected failures: {', '.join(unexpected)}")
    print(f"  verdict (exactness gate, expected failures only): "
          f"{'PASS' if correct else 'FAIL'}{pinned}")
    print(f"  failed_frac = {len(failed_ids) / attempted:.6g} "
          f"({len(failed_ids)}/{attempted})")

    if recorder is None:
        metrics = {
            "latency_s.p50": {"value": statistics.median(latencies), "unit": "s"},
            "latency_s.tail": {"value": tail_value, "unit": "s"},
            "throughput_rps": {"value": throughput, "unit": "1/s"},
            "setup_s": {"value": statistics.median(timed["setup"]), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
        print(f"  latency_s.tail is p{pct:.1f} of {attempted} samples "
              f"({beyond} beyond it)")
    else:
        totals = tracing.LayerTotals()
        totals.add(recorder.spans, timed["first_period"])
        interp = bytes_written = rejected = 0.0
        if not workload.in_process:
            for req_id, (case, outcome, latency) in enumerate(requests):
                spans_path = WORK / "out" / f"{req_id}.spans.json"
                if spans_path.exists():
                    totals.add(json.loads(spans_path.read_text()), timed["first_period"])
                interp += latency - totals.main_s.get(req_id, 0.0)
                out_dir = WORK / "out" / str(req_id)
                if out_dir.is_dir():
                    bytes_written += sum(p.stat().st_size for p in out_dir.iterdir())
                if case.spec["expect"] != 0 and not outcome.failed:
                    rejected += 1
        values = totals.metrics(periods)
        values["cli.interpreter_s"] = interp / periods
        values["cli.bytes_written"] = bytes_written / periods
        values["cli.rejected"] = rejected / periods
        values["trace.throughput_rps"] = throughput
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
        print(f"{SHARES_PREFIX}{json.dumps(totals.shares())}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
