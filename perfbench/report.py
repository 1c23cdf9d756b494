"""Every workload, end to end and traced, in one command.

    python3 perfbench/report.py [--seed 1]

For each workload this runs ``run.py`` once with tracing off and twice
with tracing on (same seed, run.py's default length), then prints:

* every end-to-end metric with its unit, the failed share and the
  exactness verdict, which also requires that exactly the requests in
  ``workloads.EXPECTED_FAILURES`` failed;
* the tracing overhead (traced against untraced throughput);
* whether the two traced runs gave identical work counts;
* the design checks the workloads were chosen for (which layers carry
  the self time, and how often a build repeats).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import SHARES_PREFIX  # noqa: E402


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(result, self-time shares) of one run; the shares only when traced."""
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--trace", str(trace)],
                         cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    shares = [json.loads(line[len(SHARES_PREFIX):]) for line in lines
              if line.startswith(SHARES_PREFIX)]
    return json.loads(lines[-1]), (shares[0] if shares else {})


def expected_failed(workload: str, seed: int, attempted: int) -> int:
    """How many of ``attempted`` requests are known failures."""
    cases = workloads.WORKLOADS[workload](seed, HERE.parent, None, {}).cases
    known = sum(c.key in workloads.EXPECTED_FAILURES for c in cases)
    return known * attempted // len(cases)


def group_leads(share: dict, group: list[str]) -> bool:
    """The group's summed share exceeds the share of every layer outside it."""
    inside = sum(share.get(layer, 0.0) for layer in group)
    return all(v < inside for layer, v in share.items() if layer not in group)


def design_checks(workload: str, metrics: dict, share: dict) -> list[tuple[str, bool]]:
    value = {name: m["value"] for name, m in metrics.items()}
    top = max(share, key=share.get)
    if workload == "cli-sampled":
        return [("regress.moments_from_samples has the largest self-time share",
                 top == "regress.moments_from_samples"),
                ("biorth.repeat_build_frac == 0", value["biorth.repeat_build_frac"] == 0)]
    if workload == "api-analytic":
        return [("regress.moments_from_samples is absent",
                 value["regress.moments_from_samples.calls"] == 0),
                ("build + select_removal + downgrade lead the self time",
                 group_leads(share, ["biorth.build", "biorth.select_removal",
                                     "biorth.downgrade"])),
                ("biorth.repeat_build_frac > 0.5", value["biorth.repeat_build_frac"] > 0.5)]
    return [("project + upgrade lead the self time",
             group_leads(share, ["biorth.project", "biorth.upgrade"]))]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    ok = True
    for workload in workloads.WORKLOADS:
        plain, _ = run(workload, args.seed, 0)
        traced_runs = [run(workload, args.seed, 1) for _ in range(2)]
        traced = [result for result, _ in traced_runs]
        print(f"== {workload} (seed {args.seed}) ==")
        for name, m in plain["metrics"].items():
            print(f"  {name:24s} {m['value']:12.6g} {m['unit']}")
        known = expected_failed(workload, args.seed, plain["attempted"])
        print(f"  {'failed_frac':24s} {plain['failed'] / plain['attempted']:12.6g} "
              f"({plain['failed']}/{plain['attempted']}, {known} known failures)")
        verdict = (all(r["correct"] for r in [plain] + traced)
                   and plain["failed"] == known)
        print(f"  exactness and known failures only: {'PASS' if verdict else 'FAIL'}")
        overhead = (traced[0]["metrics"]["trace.throughput_rps"]["value"]
                    / plain["metrics"]["throughput_rps"]["value"])
        print(f"  tracing: traced/untraced throughput = {overhead:.3f}")
        diff = [name for name in tracing.EXACT_COUNTS
                if traced[0]["metrics"][name]["value"] != traced[1]["metrics"][name]["value"]]
        print(f"  counts repeat exactly over two traced runs: "
              f"{'yes' if not diff else 'NO: ' + ', '.join(diff)}")
        share = traced_runs[0][1]
        top = sorted(share.items(), key=lambda kv: -kv[1])[:5]
        print("  self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in top))
        for text, passed in design_checks(workload, traced[0]["metrics"], share):
            print(f"  design check: {text}: {'yes' if passed else 'NO'}")
            ok &= passed
        ok &= verdict and not diff
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
