"""Command-line front end.

Three verbs:

* ``fit``:     regress a CSV of samples onto one family, writing
               ``model.json`` and ``residuals.csv``;
* ``example``: run one of the three built-in demo scenarios, writing
               ``report.json`` and one CSV;
* ``tables``:  print the exact rational coefficient rows of the
               biorthogonal polynomials, for inspection.

``fit`` and ``example`` write all of their files or none, through the
one writer here, ``_write_all``, and create the output directory only
then, after the computation.  Each verb imports what it computes with
when it runs: ``tables`` needs only the exact layer and loads no numpy,
``fit`` loads ``regress`` (and numpy) once its CSV has parsed, and only
``example`` loads ``demos``.

Exit codes: 0 success, 2 unusable input (malformed or non-UTF-8 CSV,
non-finite values, bad flags, a sample grid that is not uniform or has
an even point count, values that overflow the float range, exact
coefficients too long to print, an output directory that cannot be
created or written), 3 family/domain mismatch (a sample grid whose ends
are not the family's interval's ends, to ``UNIFORM_GRID_RTOL`` of a step,
or a family that cannot fit from sampled data at all).  When a grid
breaks more than one of these, the code is that of the check that fails
first.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from operator import index
from pathlib import Path

from .biorth import FitModel, _check_exponents, build, fit
from .exact import ExactPoly, ScaleTag
from .families import FamilyKind, FamilySpec, coeff_scale

__all__ = ["main", "load_model", "format_beta_row"]

MAX_ORDER = 64
MAX_TABLE_ORDER = 20

EXIT_BAD_INPUT = 2
EXIT_DOMAIN = 3


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------

def _family_from_args(name: str, b: str | None) -> FamilySpec:
    try:
        kind = FamilyKind(name)
        b = "1" if b is None and kind is FamilyKind.LEGENDRE_SHIFTED else b
        return FamilySpec(kind, b)
    except ValueError as exc:
        raise CliError(EXIT_BAD_INPUT, f"--family {name} --b {b}: {exc}") from None


def _read_samples(path: Path):
    """The ``SampleSet`` of a CSV with header ``x,y``."""
    if not path.exists():
        raise CliError(EXIT_BAD_INPUT, f"input file not found: {path}")
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise CliError(EXIT_BAD_INPUT, f"{path}: empty file")
            if [h.strip().lower() for h in header] != ["x", "y"]:
                raise CliError(EXIT_BAD_INPUT,
                               f"{path}: header must be 'x,y', got {','.join(header)!r}")
            xs, ys = [], []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise CliError(EXIT_BAD_INPUT,
                                   f"{path}:{lineno}: expected two fields, got {len(row)}")
                try:
                    xs.append(float(row[0]))
                    ys.append(float(row[1]))
                except ValueError:
                    raise CliError(EXIT_BAD_INPUT,
                                   f"{path}:{lineno}: non-numeric value in {row!r}")
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise CliError(EXIT_BAD_INPUT, f"{path}: {exc}")
    if not xs:
        raise CliError(EXIT_BAD_INPUT, f"{path}: no data rows")
    from .regress import SampleSet
    try:
        return SampleSet(xs, ys)
    except ValueError as exc:
        raise CliError(EXIT_BAD_INPUT, f"{path}: {exc}")


def _digit_limit_error(args) -> CliError:
    """Exit 2 for exact rationals too long to print.

    ``str`` of an int past the interpreter's int-to-str digit limit (4300
    digits by default) raises ValueError; a ``--b`` of many digits at a
    high order gets there, be it large or as close to 1 as
    (10^80+1)/10^80.  The limit guards against quadratic-time conversion,
    so it is reported here, not lifted.
    """
    return CliError(EXIT_BAD_INPUT,
                    f"--b {args.b} --k {args.k}: the exact rationals have more "
                    "digits than the interpreter converts to text; use a "
                    "--b with fewer digits or a smaller --k")


@contextmanager
def _writing(out_dir: Path):
    """Report a failure to create or write the output directory as exit 2."""
    try:
        yield
    except OSError as exc:
        raise CliError(EXIT_BAD_INPUT, f"--out {out_dir}: {exc}") from None


def _json_text(doc: dict) -> str:
    """Strict JSON (no NaN or infinity), sorted keys, two-space indent."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_text(header: list[str], columns: list) -> str:
    """A header line, then one row per index of the equal-length numpy
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


def _model_to_json(model: FitModel, figures: dict) -> dict:
    b = model.family.b            # None but for legendre0b
    return {
        "family": model.family.kind.value,
        "params": {} if b is None else {"b": str(b)},
        "k": model.k,
        "exponents": list(model.exponents),
        "coeffs": [f"{c:.17g}" for c in model.coeffs],
        "coeffs_exact": [str(c) for c in model.coeffs_exact],
        "diagnostics": figures,
    }


def load_model(source: str | Path | dict) -> FitModel:
    """Rebuild the exact FitModel of a model.json (path or parsed dict).

    Its numerators are the ``coeffs_exact`` c_n over the family's scales
    D_n, over their lcm.  The ``coeffs`` (17 digits) must be the floats the
    model rounds from c_n, so it evaluates bit for bit like the one saved;
    only here are floats from outside checked.  A document that makes no
    model raises ``ValueError``: ``k`` in 0..``MAX_ORDER``, as ``fit`` writes
    it, ``coeffs`` and ``coeffs_exact`` lists, and ``FitModel`` checks the rest.
    """
    if not isinstance(source, dict):
        source = json.loads(Path(source).read_text(encoding="utf-8"))
    try:
        fam = FamilySpec(FamilyKind(source["family"]), source["params"].get("b"))
        k = index(source["k"])
        if not 0 <= k <= MAX_ORDER:
            raise ValueError(f"model order {k} is outside 0..{MAX_ORDER}")
        exponents = _check_exponents(source["exponents"], k)
        for name in ("coeffs", "coeffs_exact"):
            if not isinstance(source[name], list):
                raise TypeError(f"{name} is a {type(source[name]).__name__}, not a list")
        if (count := len(source["coeffs_exact"])) != len(exponents):
            raise ValueError(f"{count} coeffs_exact for {len(exponents)} exponents")
        ratios = [Fraction(c) / coeff_scale(fam, n)
                  for n, c in zip(exponents, source["coeffs_exact"])]
        den = math.lcm(*(r.denominator for r in ratios))
        model = FitModel(fam, k, exponents, [int(r * den) for r in ratios], den)
        if (coeffs := tuple(map(float, source["coeffs"]))) != model.coeffs:
            raise ValueError(f"model coefficients {coeffs!r} are not the "
                             f"floats {model.coeffs} of its numerators")
        return model
    except KeyError as exc:
        raise ValueError(f"model document has no key {exc}") from None
    except (AttributeError, TypeError, OverflowError, ZeroDivisionError) as exc:
        # not an object, a value mistyped, past the float range, or 1/0
        raise ValueError(f"not a model document: {exc}") from None


# ----------------------------------------------------------------------
# verbs
# ----------------------------------------------------------------------

def _where(fam: FamilySpec, b: str | None) -> str:
    """'legendre0b(b=2) lives on [0, 2]', for the domain-error message.

    A given ``--b`` is echoed as typed: converted, one past the float
    range or the int-to-str digit limit would fail, and one below it
    would read 0.
    """
    if b is not None:
        return f"{fam.kind.value}(b={b}) lives on [0, {b}]"
    hi = "inf" if fam.space.hi is None else f"{float(fam.space.hi):g}"
    return f"{fam.describe()} lives on [{float(fam.space.lo):g}, {hi}]"


def _cmd_fit(args) -> int:
    fam = _family_from_args(args.family, args.b)
    if not 0 <= args.k <= MAX_ORDER:
        raise CliError(EXIT_BAD_INPUT, f"--k must be in 0..{MAX_ORDER}")
    if not 0 <= args.removals <= args.k:
        raise CliError(EXIT_BAD_INPUT,
                       "--removals must leave at least one active exponent")
    samples = _read_samples(Path(args.input))
    import numpy as np
    from .regress import (EvenPanelParityError, NonUniformGridError,
                          UnsupportedSpaceError, error_figures,
                          moments_from_samples)
    try:
        mom = moments_from_samples(samples, fam.space, args.k)
        model = fit(fam, args.k, mom, removals=args.removals)
    except UnsupportedSpaceError as exc:
        raise CliError(EXIT_DOMAIN, f"family {_where(fam, args.b)}: {exc}")
    except (NonUniformGridError, EvenPanelParityError) as exc:
        raise CliError(EXIT_BAD_INPUT, f"{args.input}: {exc}")
    except OverflowError as exc:    # a FloatRangeError names the moment or order
        raise CliError(EXIT_BAD_INPUT, f"{args.input}: moments or coefficients "
                       f"of order {args.k} overflow the float range: {exc}")
    with np.errstate(over="ignore", invalid="ignore"):
        fitted, errors = error_figures(model, samples)
    l2, max_abs, bic = errors["l2_error"], errors["max_abs_error"], errors["bic"]
    if not (math.isfinite(l2) and math.isfinite(max_abs)):
        raise CliError(EXIT_BAD_INPUT,
                       f"{args.input}: residuals overflow the float range")
    figures = {"l2_error": l2, "max_abs_error": max_abs,
               "bic": bic if math.isfinite(bic) else None,  # -inf: zero residual
               "n_params": model.n_params}

    try:
        model_json = _model_to_json(model, figures)
    except ValueError:
        raise _digit_limit_error(args) from None
    texts = {
        "model.json": _json_text(model_json),
        "residuals.csv": _csv_text(["x", "y", "fit", "abs_error"],
                                   [samples.xs, samples.ys, fitted,
                                    np.abs(samples.ys - fitted)]),
    }
    out_dir = Path(args.out)
    with _writing(out_dir):
        _write_all(out_dir, texts)

    print(f"fit {fam.describe()} k={args.k}"
          + (f" removals={args.removals}" if args.removals else "")
          + f": n_params={model.n_params}"
          f" l2_error={l2:.6g} bic={bic:.6g}")
    print(f"wrote {out_dir / 'model.json'} and {out_dir / 'residuals.csv'}")
    return 0


def _cmd_example(args) -> int:
    if args.seed < 0:
        raise CliError(EXIT_BAD_INPUT, f"--seed must be >= 0, got {args.seed}")
    from .demos import run_closed_form_decay, run_high_order_wiggle, run_noisy_chirp
    out_dir = Path(args.out)
    if args.number == 1:
        with _writing(out_dir):
            report = run_noisy_chirp(out_dir, seed=args.seed)
        fits = report["fits"]
        print(f"noisy chirp (seed={report['seed']}): "
              f"err(k17)={fits['k17']['error_vs_truth']:.4e} "
              f"err(pruned)={fits['pruned']['error_vs_truth']:.4e} "
              f"err(k14)={fits['k14']['error_vs_truth']:.4e}")
        print(f"removed exponents: {fits['pruned']['removed']}  "
              f"BIC: {fits['k17']['bic']:.2f} < {fits['pruned']['bic']:.2f} "
              f"< {fits['k14']['bic']:.2f} "
              f"(ordering {'holds' if report['bic_ordering_ok'] else 'violated'})")
    elif args.number == 2:
        with _writing(out_dir):
            report = run_closed_form_decay(out_dir)
        for row in report["fits"]:
            print(f"{row['target']:>13} {row['family']:>10} k={row['k']:>2}: "
                  f"max|err| on [0,10] = {row['max_abs_error_0_10']:.4e}")
    else:
        with _writing(out_dir):
            report = run_high_order_wiggle(out_dir)
        for fam_name in ("legendre", "chebyshev"):
            e = report[fam_name]
            print(f"{fam_name:>9} k=36: rms_error={e['rms_error']:.4e} "
                  f"max|err|={e['max_abs_error']:.4e}")
        base = report["baseline"]
        print(f" baseline k=36: condition~{base['condition_estimate']:.2e} "
              f"mean|err| ratio vs legendre = {base['mean_error_ratio_vs_legendre']:.1f}")
    print(f"wrote {out_dir / 'report.json'}")
    return 0


def format_beta_row(n: int, poly: ExactPoly) -> str:
    """One display line: 'beta_2: 30 - 180 x + 180 x^2' (exact rationals)."""
    terms = []
    for e, c in enumerate(poly.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            xpart = "x" if e == 1 else f"x^{e}"
            body = xpart if mag == 1 else f"{mag} {xpart}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"{'+' if c > 0 else '-'} {body}")
    body = " ".join(terms) if terms else "0"
    if poly.scale is ScaleTag.INV_PI:
        body = f"(1/pi) * ({body})"
    return f"beta_{n}: {body}"


def _cmd_tables(args) -> int:
    fam = _family_from_args(args.family, args.b)
    if not 0 <= args.k <= MAX_TABLE_ORDER:
        raise CliError(EXIT_BAD_INPUT,
                       f"--k must be in 0..{MAX_TABLE_ORDER} for exact tables")
    s = build(fam, args.k)
    try:
        lines = [f"{fam.describe()}, order {args.k}: monomial coefficients "
                 "of each biorthogonal row"]
        lines += [format_beta_row(n, s.beta(n)) for n in s.active]
    except ValueError:
        raise _digit_limit_error(args) from None
    print("\n".join(lines))
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biopoly",
        description="Polynomial regression through biorthogonal sequences, "
                    "plus the demo scenarios and exact coefficient tables.")
    sub = parser.add_subparsers(dest="verb", required=True)

    families = [k.value for k in FamilyKind]

    p_fit = sub.add_parser("fit", help="fit a CSV of samples (header x,y)")
    p_fit.add_argument("--family", required=True, choices=families)
    p_fit.add_argument("--b", default=None,
                       help="right endpoint for legendre0b, as a rational "
                            "(default 1)")
    p_fit.add_argument("--k", type=int, required=True,
                       help=f"fit order, 0..{MAX_ORDER}")
    p_fit.add_argument("--removals", type=int, default=0,
                       help="greedy term removals after the full fit")
    p_fit.add_argument("--input", required=True, help="CSV path, header x,y")
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.set_defaults(func=_cmd_fit)

    p_ex = sub.add_parser("example", help="run a built-in demo scenario")
    p_ex.add_argument("number", type=int, choices=(1, 2, 3),
                      help="1 noisy chirp, 2 closed-form decay targets, "
                           "3 order-36 fits vs the naive solver")
    p_ex.add_argument("--seed", type=int, default=42,
                      help="noise seed for scenario 1, >= 0 (default 42; "
                           "ignored by 2 and 3)")
    p_ex.add_argument("--out", required=True, help="output directory")
    p_ex.set_defaults(func=_cmd_example)

    p_tab = sub.add_parser("tables",
                           help="print exact biorthogonal coefficient rows")
    p_tab.add_argument("--family", required=True, choices=families)
    p_tab.add_argument("--b", default=None,
                       help="right endpoint for legendre0b (default 1)")
    p_tab.add_argument("--k", type=int, required=True,
                       help=f"order, 0..{MAX_TABLE_ORDER}")
    p_tab.set_defaults(func=_cmd_tables)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"biopoly: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    # under ``python -m``, ``demos`` imports its writers from this run, not
    # from a second copy of the module
    sys.modules[__spec__.name] = sys.modules[__name__]
    sys.exit(main())
