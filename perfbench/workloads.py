"""The three request mixes: cli-sampled, api-analytic and order-scan.

Each workload is a fixed case list; one period sends every case once.
The seed changes the noise and the data of the cases and the order of
requests inside a period, never the case list, so the cost mix is the
same for every seed.  See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import exactness

NOISE_SIGMA = 0.1
EVAL_POINTS = 100_000
CLI_TIMEOUT_S = 170


def chirp(x):
    return np.cos(7.0 * np.pi * x * x)


def damped_wiggle(x):
    return (1.0 - x * x) * np.exp(-x) * np.sin(8.0 * np.pi * x)


#: sampled datasets: target, interval, family name and --b of the matching family
SAMPLED = {
    "chirp": (chirp, 0.0, 1.0, "legendre0b", Fraction(1)),
    "wiggle": (damped_wiggle, -1.0, 1.0, "legendre", None),
}


def noisy_samples(seed: int, tag: int, target: str, n: int):
    fn, lo, hi, _, _ = SAMPLED[target]
    rng = np.random.default_rng([seed, tag])
    xs = np.linspace(lo, hi, n)
    return xs, fn(xs) + rng.normal(0.0, NOISE_SIGMA, n)


@dataclass
class Case:
    """One request of a workload; ``key`` names it across periods and seeds."""

    key: str
    spec: dict = field(default_factory=dict)


@dataclass
class Outcome:
    failed: bool = False
    note: str = ""
    output: object = None


class Workload:
    name = ""
    #: wall time of one untraced period at the commit that defined the
    #: benchmark (2-core x86-64 container, CPython 3.11); a run sends
    #: round(seconds / period_s) periods, so every commit does the same work
    period_s = 1.0
    in_process = True

    def __init__(self, seed: int, root: Path, work: Path, env: dict):
        self.seed = seed
        self.root = root
        self.work = work
        self.env = env
        self.cases = self.build_cases()

    def build_cases(self) -> list[Case]:
        raise NotImplementedError

    def period(self, i: int) -> list[Case]:
        """Every case once, in this seed's order for period i."""
        cases = list(self.cases)
        random.Random(self.seed * 1009 + i).shuffle(cases)
        return cases

    def prepare(self) -> None:
        """Make this seed's inputs (outside the timed phase)."""

    def execute(self, case: Case, req_id: int, recorder) -> Outcome:
        raise NotImplementedError

    def check(self, case: Case, out: Outcome) -> list[str]:
        """Exactness problems of one successful output (empty: exact)."""
        raise NotImplementedError

    def digest(self, case: Case, out: Outcome) -> str | None:
        """Digest of the exact outputs that must not drift (None: nothing to pin)."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# cli-sampled
# ----------------------------------------------------------------------

CLI_POINTS = [1001, 2001]
CLI_ORDERS = [17, 36]
CLI_REMOVALS = [0, 3]
CLI_REJECTS = ["even-count", "laguerre-samples", "outside-interval", "nan-value"]
#: case keys known to fail today: a ``nan`` y-value exits 1 with a traceback
#: instead of 2 (ROADMAP item 5).  Any other failed request makes a run
#: incorrect; the fix for item 5 should empty this set.
EXPECTED_FAILURES = frozenset({"reject-nan-value"})
MAX_ORDER_CASE = ("chirp", 501, 64, 10)


class CliSampled(Workload):
    """``biopoly fit`` / ``biopoly example`` as one fresh process per request."""

    name = "cli-sampled"
    period_s = 13.0
    in_process = False

    def build_cases(self):
        # every (n, k, removals) once; the two targets split the grid as a
        # half fraction, so each target meets every level of every factor
        cases = []
        for a, n in enumerate(CLI_POINTS):
            for b, k in enumerate(CLI_ORDERS):
                for c, r in enumerate(CLI_REMOVALS):
                    target = "chirp" if (a + b + c) % 2 == 0 else "wiggle"
                    cases.append(self._fit_case(target, n, k, r))
        cases.append(self._fit_case(*MAX_ORDER_CASE))
        cases.append(Case("example-3", {"argv": ["example", "3"], "expect": 0}))
        cases += [self._reject_case(kind) for kind in CLI_REJECTS]
        return cases

    @staticmethod
    def _fit_case(target, n, k, r):
        _, _, _, family, b = SAMPLED[target]
        argv = ["fit", "--family", family, "--k", str(k), "--removals", str(r)]
        if b is not None:
            argv += ["--b", str(b)]
        return Case(f"fit-{target}-n{n}-k{k}-r{r}",
                    {"argv": argv, "data": (target, n), "expect": 0,
                     "family": family, "b": b, "k": k, "r": r})

    @staticmethod
    def _reject_case(kind):
        # (dataset, argv, documented exit code)
        table = {
            "even-count": (("chirp", 1000), ["fit", "--family", "legendre0b",
                                             "--k", "17"], 2),
            "laguerre-samples": (("chirp", 1001), ["fit", "--family", "laguerre",
                                                   "--k", "17"], 3),
            "outside-interval": (("wiggle", 1001), ["fit", "--family", "legendre0b",
                                                    "--k", "17"], 3),
            "nan-value": (("chirp-nan", 1001), ["fit", "--family", "legendre0b",
                                                "--k", "17"], 2),
        }
        data, argv, code = table[kind]
        return Case(f"reject-{kind}", {"argv": argv, "data": data, "expect": code})

    def prepare(self):
        self.samples = {}
        (self.work / "in").mkdir(parents=True, exist_ok=True)
        (self.work / "out").mkdir(parents=True, exist_ok=True)
        datasets = {c.spec["data"] for c in self.cases if "data" in c.spec}
        for tag, (target, n) in enumerate(sorted(datasets)):
            xs, ys = noisy_samples(self.seed, tag, target.replace("-nan", ""), n)
            if target.endswith("-nan"):
                ys[int(np.random.default_rng([self.seed, tag, 1]).integers(1, n - 1))] = np.nan
            self.samples[(target, n)] = (xs, ys)
            path = self.work / "in" / f"{target}-{n}.csv"
            with path.open("w", encoding="utf-8") as fh:
                fh.write("x,y\n")
                for x, y in zip(xs.tolist(), ys.tolist()):
                    fh.write(f"{x!r},{y!r}\n")

    def execute(self, case, req_id, recorder):
        out_dir = self.work / "out" / str(req_id)
        argv = list(case.spec["argv"])
        if "data" in case.spec:
            target, n = case.spec["data"]
            argv += ["--input", str(self.work / "in" / f"{target}-{n}.csv")]
        argv += ["--out", str(out_dir)]
        if recorder is None:
            cmd = [sys.executable, "-m", "biopoly.cli"] + argv
        else:
            spans = self.work / "out" / f"{req_id}.spans.json"
            cmd = [sys.executable, str(Path(__file__).with_name("cli_shim.py")),
                   str(spans), str(req_id)] + argv
        err_path = self.work / "out" / f"{req_id}.err"
        expired = threading.Event()
        with err_path.open("w") as err:
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            # a blocking wait returns the moment the child exits; wait(timeout=)
            # would poll with sleeps of up to 50 ms and quantize the latency
            timer = threading.Timer(CLI_TIMEOUT_S, lambda: (expired.set(), proc.kill()))
            timer.start()
            try:
                code = proc.wait()
            finally:  # never leave a child running, also on interrupt
                timer.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if expired.is_set():
            return Outcome(True, "timeout", out_dir)
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        if "Traceback" in stderr:
            last = stderr.strip().splitlines()[-1]
            return Outcome(True, f"exit {code}, traceback: {last}", out_dir)
        if code != case.spec["expect"]:
            return Outcome(True, f"exit {code}, expected {case.spec['expect']}", out_dir)
        return Outcome(False, "", out_dir)

    def _result_file(self, case, out):
        if case.spec["expect"] != 0:
            return None
        name = "report.json" if case.key.startswith("example") else "model.json"
        return out.output / name

    def digest(self, case, out):
        path = self._result_file(case, out)
        return None if path is None else exactness.digest(path.read_bytes())

    def check(self, case, out):
        path = self._result_file(case, out)
        if path is None:
            return []
        report = json.loads(path.read_bytes())
        if case.key.startswith("example"):
            return [] if report.get("scenario") else ["report.json has no scenario"]
        model = report
        xs, ys = self.samples[case.spec["data"]]
        k = case.spec["k"]
        problems = []
        if (len(model["exponents"]) != k + 1 - case.spec["r"]
                or not set(model["exponents"]) <= set(range(k + 1))):
            problems.append(f"exponents {model['exponents']} do not fit k={k}")
        mu = exactness.simpson_moments_exact(xs, ys, k)
        bad = exactness.simpson_float_mismatch(xs, ys, mu)
        if bad:
            problems.append(f"float Simpson disagrees at orders {bad}")
        space = exactness.space_of(case.spec["family"], case.spec["b"])
        coeffs = [exactness.parse_rational(c) for c in model["coeffs_exact"]]
        bad = exactness.normal_equation_defects(space, model["exponents"], coeffs, mu)
        if bad:
            problems.append(exactness.describe_defects(bad, model["exponents"]))
        return problems


# ----------------------------------------------------------------------
# api-analytic
# ----------------------------------------------------------------------

API_FAMILIES = ["laguerre", "legendre0b", "legendre", "chebyshev"]
API_ORDERS = [17, 36, 64]
API_REMOVALS = [0, 3, 10]


class ApiAnalytic(Workload):
    """In-process ``fit`` from closed-form or quadrature moments, then eval."""

    name = "api-analytic"
    period_s = 14.0

    def build_cases(self):
        cases = []
        for f, family in enumerate(API_FAMILIES):
            for j, k in enumerate(API_ORDERS):
                if family in ("laguerre", "legendre0b"):
                    source = "expdecay" if j % 2 == 0 else "gamma"
                else:
                    source = "quadrature"
                for r in API_REMOVALS:
                    cases.append(Case(f"{family}-{source}-k{k}-r{r}",
                                      {"family": family, "source": source,
                                       "k": k, "r": r, "tag": f * 10 + j}))
        return cases

    def prepare(self):
        from biopoly.families import FamilySpec
        self.families = {
            "laguerre": FamilySpec.laguerre(),
            "legendre0b": FamilySpec.legendre_shifted(1),
            "legendre": FamilySpec.legendre_sym(),
            "chebyshev": FamilySpec.chebyshev(),
        }
        self.grid = {
            "laguerre": np.linspace(0.0, 10.0, EVAL_POINTS),
            "legendre0b": np.linspace(0.0, 1.0, EVAL_POINTS),
            "legendre": np.linspace(-1.0, 1.0, EVAL_POINTS),
            "chebyshev": np.linspace(-1.0, 1.0, EVAL_POINTS),
        }
        self.params = {}
        for c in self.cases:
            rng = np.random.default_rng([self.seed, c.spec["tag"]])
            self.params[c.spec["tag"]] = (Fraction(int(rng.integers(1, 9)), 4),
                                          float(rng.uniform(0.2, 0.8)))

    def execute(self, case, req_id, recorder):
        from biopoly import regress
        s = case.spec
        fam = self.families[s["family"]]
        alpha, amp = self.params[s["tag"]]
        if s["source"] == "expdecay":
            mom = regress.moments_expdecay(fam.space, s["k"], alpha=alpha)
        elif s["source"] == "gamma":
            mom = regress.moments_gamma(fam.space, s["k"])
        else:
            def target(x):
                return damped_wiggle(x) + amp * chirp(0.5 * (x + 1.0))
            mom = regress.moments_quadrature(target, fam.space, s["k"])
        model = regress.fit(fam, s["k"], mom, removals=s["r"])
        values = model(self.grid[s["family"]])
        if not np.all(np.isfinite(values)):
            return Outcome(True, "non-finite evaluation", (mom, model))
        return Outcome(False, "", (mom, model))

    def check(self, case, out):
        mom, model = out.output
        mu = mom.exact_values()
        space = exactness.space_of(case.spec["family"], 1)
        problems = []
        if sorted(model.exponents + model.removed) != list(range(case.spec["k"] + 1)):
            problems.append("exponents and removed do not partition 0..k")
        bad = exactness.normal_equation_defects(space, model.exponents,
                                                model.coeffs_exact, mu)
        if bad:
            problems.append(exactness.describe_defects(bad, model.exponents))
        return problems

    def digest(self, case, out):
        mom, model = out.output
        return exactness.digest(mom.exact_values(), model.exponents,
                                model.coeffs_exact, model.removed)


# ----------------------------------------------------------------------
# order-scan
# ----------------------------------------------------------------------

SCAN_POINTS = 201
SCAN_KMAX = 48
SCAN_REMOVALS = 3
SCAN_DATASETS = 4


class OrderScan(Workload):
    """Model selection: one moment vector, upgrade 1..48, BIC, pruned refit."""

    name = "order-scan"
    period_s = 9.0

    def build_cases(self):
        return [Case(f"scan-{target}-d{d}", {"target": target})
                for d in range(SCAN_DATASETS) for target in ("chirp", "wiggle")]

    def prepare(self):
        from biopoly.families import FamilySpec
        from biopoly.regress import SampleSet
        self.families = {"chirp": FamilySpec.legendre_shifted(1),
                         "wiggle": FamilySpec.legendre_sym()}
        self.samples = {}
        for tag, c in enumerate(self.cases, start=100):
            xs, ys = noisy_samples(self.seed, tag, c.spec["target"], SCAN_POINTS)
            self.samples[c.key] = (xs, ys, SampleSet(xs, ys))

    def execute(self, case, req_id, recorder):
        from biopoly import biorth, regress
        fam = self.families[case.spec["target"]]
        xs, ys, samples = self.samples[case.key]
        mom = regress.moments_from_samples(samples, fam.space, SCAN_KMAX)
        s = biorth.build(fam, 1)
        best = None
        for k in range(1, SCAN_KMAX + 1):
            if k > 1:
                s = biorth.upgrade(s)
            model = biorth.project(s, mom)
            score = regress.bic_score(model, samples)
            if best is None or score < best[0]:
                best = (score, k, model)
        _, k_best, model_best = best
        final = regress.fit(fam, k_best, mom, removals=SCAN_REMOVALS)
        return Outcome(False, "", (mom, k_best, model_best, final))

    def check(self, case, out):
        mom, k_best, model_best, final = out.output
        xs, ys, _ = self.samples[case.key]
        problems = []
        mu = exactness.simpson_moments_exact(xs, ys, SCAN_KMAX)
        if tuple(mu) != tuple(mom.exact_values()):
            problems.append("sampled mu_exact differs from the exact Simpson sum")
        bad = exactness.simpson_float_mismatch(xs, ys, mu)
        if bad:
            problems.append(f"float Simpson disagrees at orders {bad}")
        space = exactness.space_of(self.families[case.spec["target"]].name, 1)
        for label, model in (("best order", model_best), ("pruned fit", final)):
            bad = exactness.normal_equation_defects(space, model.exponents,
                                                    model.coeffs_exact, mu)
            if bad:
                problems.append(f"{label}: "
                                + exactness.describe_defects(bad, model.exponents))
        return problems

    def digest(self, case, out):
        mom, k_best, model_best, final = out.output
        return exactness.digest(mom.exact_values(), k_best, model_best.coeffs_exact,
                                final.exponents, final.coeffs_exact, final.removed)


WORKLOADS = {w.name: w for w in (CliSampled, ApiAnalytic, OrderScan)}


def describe_exception() -> str:
    return traceback.format_exc().strip().splitlines()[-1]
