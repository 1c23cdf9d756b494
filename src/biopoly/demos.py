"""End-to-end demo scenarios behind the command line's ``example`` verb.

Each runner fits one of the built-in targets, writes a ``report.json``
with every headline number plus one plot-ready CSV, all or none, and
returns the report dictionary.  The output directory is created when the
files are written, after the computation.  Reports are fully
deterministic (seeded noise, exact moments, sorted keys), so running a
scenario twice produces byte-identical files; wall-clock timings are
deliberately left out of the reports for the same reason.

The private text and file helpers here write the command line's ``fit``
outputs too, so every file the package writes takes one path.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .baseline import condition_estimate, determinant, gram, solve_normal_equations
from .exact import horner_many
from .families import FamilySpec
from .regress import (FitModel, SampleSet, error_figures, fit, l2_error,
                      moments_expdecay, moments_from_samples, moments_gamma,
                      moments_quadrature)
from .targets import chirp, damped_wiggle, exp_decay, gamma_density

__all__ = ["run_noisy_chirp", "run_closed_form_decay", "run_high_order_wiggle"]


def _json_text(doc: dict) -> str:
    """Strict JSON (no NaN or infinity), sorted keys, two-space indent."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_text(header: list[str], columns: list[np.ndarray]) -> str:
    """A header line, then one row per index of the equal-length
    ``columns``, each value in ``%.17g`` so it reads back bit for bit."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    return ",".join(header) + "\n" + "".join(
        row % values for values in zip(*(c.tolist() for c in columns)))


def _write_all(out_dir: str | Path, texts: dict[str, str]) -> None:
    """Create ``out_dir`` and write every named text into it, or none of
    them: when one write fails, the files this call opened are removed
    again.  Every file ``biopoly`` writes goes through here."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    opened = []
    try:
        for name, text in texts.items():
            with (out_dir / name).open("w", encoding="utf-8") as fh:
                opened.append(out_dir / name)
                fh.write(text)
    except OSError:
        for path in opened:
            path.unlink(missing_ok=True)
        raise


def run_noisy_chirp(out_dir: str | Path, seed: int = 42) -> dict:
    """Noisy-sample regression with order upgrade, pruning and BIC.

    501 uniform samples of cos(7 pi x^2) on [0, 1] with N(0, 0.01) noise
    are fitted at order 17, pruned by three greedy removals, and compared
    against a deliberately short order-14 fit.  The report records the
    error of each model against the noiseless target and the BIC each
    one earns on the noisy data.
    """
    fam = FamilySpec.legendre_shifted(1)
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, 501)
    ys = chirp(xs) + rng.normal(0.0, 0.1, size=xs.size)
    samples = SampleSet(xs, ys)
    mom = moments_from_samples(samples, fam.space, 17)

    full = fit(fam, 17, mom)
    pruned = fit(fam, 17, mom, removals=3)
    short = fit(fam, 14, mom)

    def entry(model: FitModel) -> tuple[np.ndarray, dict]:
        values, figures = error_figures(model, samples)
        return values, {
            "k": model.k,
            "n_params": model.n_params,
            "removed": list(model.removed),
            "error_vs_truth": l2_error(model, chirp),
            "bic": figures["bic"],
        }

    (v_full, e_full), (v_pruned, e_pruned), (v_short, e_short) = (
        entry(full), entry(pruned), entry(short))
    inc_pruned = e_pruned["bic"] - e_full["bic"]
    inc_short = e_short["bic"] - e_full["bic"]
    report = {
        "scenario": "noisy-chirp",
        "family": fam.name,
        "seed": seed,
        "n_samples": int(xs.size),
        "noise_sigma": 0.1,
        "fits": {"k17": e_full, "pruned": e_pruned, "k14": e_short},
        "bic_increase_pruned": inc_pruned,
        "bic_increase_k14": inc_short,
        "bic_ordering_ok": bool(e_full["bic"] < e_pruned["bic"] < e_short["bic"]),
        "pruned_relative_error_change":
            (e_pruned["error_vs_truth"] - e_full["error_vs_truth"])
            / e_full["error_vs_truth"],
    }
    _write_all(out_dir, {
        "report.json": _json_text(report),
        "chirp_fits.csv": _csv_text(
            ["x", "y_noisy", "truth", "fit_k17", "fit_pruned", "fit_k14"],
            [xs, ys, chirp(xs), v_full, v_pruned, v_short]),
    })
    return report


def run_closed_form_decay(out_dir: str | Path) -> dict:
    """Noiseless fits of the two targets with exact rational moments.

    The exponential decay and the gamma density are fitted both on the
    half line (weight e^{-x}) and on [0, 10] with unit weight, at the
    orders where each family first resolves the target to a few 1e-4 of
    maximum pointwise error on [0, 10].
    """
    laguerre = FamilySpec.laguerre()
    shifted = FamilySpec.legendre_shifted(10)
    cases = [
        ("exp-decay", exp_decay, laguerre, 14,
         moments_expdecay(laguerre.space, 14)),
        ("exp-decay", exp_decay, shifted, 9,
         moments_expdecay(shifted.space, 9)),
        ("gamma-density", gamma_density, laguerre, 17,
         moments_gamma(laguerre.space, 17)),
        ("gamma-density", gamma_density, shifted, 11,
         moments_gamma(shifted.space, 11)),
    ]

    xs = np.linspace(0.0, 10.0, 1001)
    fit_cols, fit_names, rows = [], [], []
    for target_name, target, fam, k, mom in cases:
        model = fit(fam, k, mom)
        _, figures = error_figures(model, target)
        rows.append({
            "target": target_name,
            "family": fam.name,
            "k": k,
            # [0, 10] is the default window of both families
            "max_abs_error_0_10": figures["max_abs_error"],
            "l2_error": figures["l2_error"],
        })
        fit_cols.append(model(xs))
        fit_names.append(f"fit_{target_name.replace('-', '')}_{fam.kind.value}_k{k}")

    report = {"scenario": "closed-form-decay", "fits": rows}
    _write_all(out_dir, {
        "report.json": _json_text(report),
        "decay_fits.csv": _csv_text(
            ["x", "exp_decay", "gamma_density"] + fit_names,
            [xs, exp_decay(xs), gamma_density(xs)] + fit_cols),
    })
    return report


def run_high_order_wiggle(out_dir: str | Path) -> dict:
    """Order-36 fits on [-1, 1] against the naive normal-equations solver.

    Both symmetric families fit (1 - x^2) e^{-x} sin(8 pi x); the same
    moments also feed the monomial-Gram solve, whose 1-norm condition
    number and pointwise error document why that route collapses at this
    order.  The figure is the condition number by its definition, not an
    estimate; its report key keeps the name of ``baseline``'s
    ``condition_estimate``, which the acceptance suite imports and
    ``perfbench/tracing.py`` wraps.
    """
    k = 36
    legendre = FamilySpec.legendre_sym()
    chebyshev = FamilySpec.chebyshev()
    mom_leg = moments_quadrature(damped_wiggle, legendre.space, k)
    mom_cheb = moments_quadrature(damped_wiggle, chebyshev.space, k)
    fit_leg = fit(legendre, k, mom_leg)
    fit_cheb = fit(chebyshev, k, mom_cheb)

    xs = np.linspace(-1.0, 1.0, 2001)
    truth = damped_wiggle(xs)

    g = gram(legendre.space, k)
    coeffs_base = solve_normal_equations(g, np.asarray(mom_leg.mu))
    base_vals = horner_many(coeffs_base, xs)

    def entry(model: FitModel, vals: np.ndarray) -> dict:
        # l2_error, rms_error and max_abs_error
        return {"k": k, **error_figures(model, damped_wiggle)[1],
                "mean_abs_error": float(np.mean(np.abs(vals - truth)))}

    leg_vals, cheb_vals = fit_leg(xs), fit_cheb(xs)
    leg_entry, cheb_entry = entry(fit_leg, leg_vals), entry(fit_cheb, cheb_vals)
    base_mean = float(np.mean(np.abs(base_vals - truth)))
    report = {
        "scenario": "high-order-wiggle",
        "k": k,
        "legendre": leg_entry,
        "chebyshev": cheb_entry,
        "baseline": {
            "condition_estimate": float(condition_estimate(g)),
            "determinant": float(determinant(g)),
            "mean_abs_error": base_mean,
            "mean_error_ratio_vs_legendre":
                base_mean / leg_entry["mean_abs_error"],
        },
    }
    _write_all(out_dir, {
        "report.json": _json_text(report),
        "wiggle_fits.csv": _csv_text(
            ["x", "truth", "fit_legendre", "fit_chebyshev", "fit_baseline",
             "abs_err_legendre", "abs_err_chebyshev", "abs_err_baseline"],
            [xs, truth, leg_vals, cheb_vals, base_vals,
             np.abs(leg_vals - truth), np.abs(cheb_vals - truth),
             np.abs(base_vals - truth)]),
    })
    return report
