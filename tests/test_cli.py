"""End-to-end checks of the command line: exit codes, file outputs,
round-tripping a saved model, and the exact coefficient tables."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biopoly
from biopoly import biorth, cli, demos
from biopoly.cli import EXIT_BAD_INPUT, EXIT_DOMAIN, _csv_text, load_model, main
from biopoly.exact import horner_many
from biopoly.regress import UNIFORM_GRID_RTOL


def _write_samples(path: Path, xs, ys):
    with path.open("w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for x, y in zip(xs, ys):
            fh.write(f"{x:.17g},{y:.17g}\n")


@pytest.fixture
def sym_csv(tmp_path):
    xs = np.linspace(-1.0, 1.0, 201)
    ys = np.cos(3.0 * xs) + 0.5 * xs
    path = tmp_path / "samples.csv"
    _write_samples(path, xs, ys)
    return path


# ----------------------------------------------------------------------
# fit: happy path and the saved-model round trip
# ----------------------------------------------------------------------

def test_fit_writes_model_and_residuals(sym_csv, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["fit", "--family", "legendre", "--k", "8",
               "--input", str(sym_csv), "--out", str(out)])
    assert rc == 0
    assert (out / "model.json").exists()
    assert (out / "residuals.csv").exists()
    stdout = capsys.readouterr().out
    assert "l2_error=" in stdout and "wrote" in stdout

    doc = json.loads((out / "model.json").read_text())
    assert doc["family"] == "legendre"
    assert doc["k"] == 8
    assert doc["exponents"] == list(range(9))
    assert len(doc["coeffs"]) == 9
    for key in ("l2_error", "max_abs_error", "bic", "n_params"):
        assert key in doc["diagnostics"]


def test_fit_evaluates_the_model_once(sym_csv, tmp_path, monkeypatch):
    """model.json's l2_error, max_abs_error and bic come from one residual."""
    calls = []

    def counting_horner(coeffs, xs):
        calls.append(np.shape(xs))
        return horner_many(coeffs, xs)

    monkeypatch.setattr(biorth, "horner_many", counting_horner)
    assert main(["fit", "--family", "legendre", "--k", "8", "--removals", "2",
                 "--input", str(sym_csv), "--out", str(tmp_path / "out")]) == 0
    assert calls == [(201,)]


def test_example_3_evaluates_each_model_once_per_error(tmp_path, monkeypatch):
    """Each order-36 fit is evaluated once on the plot grid and once per
    error grid: rms_error divides l2_error's value, and the Legendre fit's
    max_abs_error grid is its Simpson node set, so one evaluation there
    gives both; the baseline solve is evaluated once."""
    calls = []

    def counting_horner(coeffs, xs):
        calls.append(np.shape(xs))
        return horner_many(coeffs, xs)

    monkeypatch.setattr(biorth, "horner_many", counting_horner)
    monkeypatch.setattr(demos, "horner_many", counting_horner)
    demos.run_high_order_wiggle(tmp_path)
    assert len(calls) == 6


def test_saved_model_reproduces_fit_column(sym_csv, tmp_path):
    out = tmp_path / "out"
    main(["fit", "--family", "legendre", "--k", "10",
          "--input", str(sym_csv), "--out", str(out)])

    rows = (out / "residuals.csv").read_text().strip().splitlines()
    assert rows[0] == "x,y,fit,abs_error"
    xs, fits = [], []
    for line in rows[1:]:
        x, _y, f, _e = line.split(",")
        xs.append(float(x))
        fits.append(float(f))

    model = load_model(out / "model.json")
    replay = model(np.asarray(xs))
    scale = max(abs(v) for v in fits)
    assert np.max(np.abs(replay - np.asarray(fits))) <= 1e-12 * scale


def test_load_model_accepts_dict(sym_csv, tmp_path):
    out = tmp_path / "out"
    main(["fit", "--family", "legendre", "--k", "6",
          "--input", str(sym_csv), "--out", str(out)])
    doc = json.loads((out / "model.json").read_text())
    model = load_model(doc)
    assert model.k == 6
    # float strings round-trip bit-exactly
    assert [f"{c:.17g}" for c in model.coeffs] == doc["coeffs"]


LEGENDRE_K2 = {"family": "legendre", "params": {}, "k": 2,
               "exponents": [0, 1, 2], "coeffs": ["1", "-0.5", "0.25"]}


@pytest.mark.parametrize("edit, message", [
    # exponent 5 has no place in an order-2 model: it failed at evaluation
    ({"exponents": [0, 1, 5]}, "strictly increasing tuple within 0..2"),
    ({"exponents": [1, 0, 2]}, "strictly increasing tuple within 0..2"),
    # two coefficients for three exponents silently dropped the x^2 term
    ({"coeffs": ["1", "-0.5"]}, "2 coeffs for 3 exponents"),
    # a missing key raised KeyError
    ({"coeffs": None}, "no key 'coeffs'"),
    ({"family": None}, "no key 'family'"),
    # a document or params that is not an object raised TypeError or
    # AttributeError
    ([LEGENDRE_K2], "not a model document: list indices"),
    ({"params": ["b", "2"]}, "not a model document: 'list' object has no attribute"),
    # a string of exponents was read digit by digit; a list k raised TypeError
    ({"exponents": "012"}, "not a model document: 'str' object cannot be interpreted"),
    ({"k": [2]}, "not a model document: 'list' object cannot be interpreted"),
    # an order fit never writes constructed a model whose call would
    # allocate k + 1 floats
    ({"k": 2 ** 40}, "model order 1099511627776 is outside 0..64"),
    # an unknown family or a bad b raised the command line's CliError
    ({"family": "legendre1"}, "not a valid FamilyKind"),
    ({"family": "legendre0b", "params": {"b": "0"}}, "needs a rational b > 0"),
    ({"family": "legendre0b", "params": {"b": "1/0"}}, "its denominator is zero"),
    # a string of coefficients loaded as 1 + 2x + 3x^2; a nan one evaluated nan
    ({"coeffs": "123"}, "not a model document: coeffs is a str, not a list"),
    ({"coeffs": ["nan", "0", "0"]}, r"model coefficients \(nan, 0.0, 0.0\) are not all finite"),
    # a JSON integer past the double range raised OverflowError
    ({"coeffs": [10**400, 0, 0]}, "not a model document: int too large to convert to float"),
], ids=["exponent-past-k", "unordered", "short-coeffs", "no-coeffs", "no-family",
        "not-an-object", "params-not-an-object", "exponents-not-a-list",
        "k-not-an-integer", "k-past-max-order", "unknown-family", "b-zero", "b-zero-denominator",
        "coeffs-not-a-list", "coeffs-not-finite", "coeffs-past-float-range"])
def test_load_model_refuses_malformed_documents(tmp_path, edit, message):
    assert load_model(LEGENDRE_K2)(0.5) == 1 - 0.25 + 0.0625
    doc = ({key: value for key, value in {**LEGENDRE_K2, **edit}.items()
            if value is not None} if isinstance(edit, dict) else edit)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    for source in (path, doc) if isinstance(doc, dict) else (path,):
        with pytest.raises(ValueError, match=message):
            load_model(source)


def test_fit_with_removals_drops_terms(sym_csv, tmp_path):
    out = tmp_path / "out"
    rc = main(["fit", "--family", "legendre", "--k", "9", "--removals", "3",
               "--input", str(sym_csv), "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "model.json").read_text())
    assert len(doc["exponents"]) == 7
    assert doc["diagnostics"]["n_params"] == 7


def test_fit_accepts_a_utf8_byte_order_mark(sym_csv, tmp_path):
    """Spreadsheet "CSV UTF-8" exports start with a BOM; it is not data."""
    bom_csv = tmp_path / "samples-bom.csv"
    bom_csv.write_bytes(b"\xef\xbb\xbf" + sym_csv.read_bytes())
    for src, out in ((sym_csv, "plain"), (bom_csv, "bom")):
        assert main(["fit", "--family", "legendre", "--k", "6",
                     "--input", str(src), "--out", str(tmp_path / out)]) == 0
    for name in ("model.json", "residuals.csv"):
        assert ((tmp_path / "bom" / name).read_bytes()
                == (tmp_path / "plain" / name).read_bytes())


def test_fit_skips_blank_rows(sym_csv, tmp_path):
    """Blank lines between data rows are not samples."""
    gappy = tmp_path / "gappy.csv"
    lines = sym_csv.read_text(encoding="utf-8").splitlines(keepends=True)
    gappy.write_text("".join(line + ("\n" if i % 7 == 3 else "")
                             for i, line in enumerate(lines)) + "\n",
                     encoding="utf-8")
    for src, out in ((sym_csv, "plain"), (gappy, "gappy")):
        assert main(["fit", "--family", "legendre", "--k", "6",
                     "--input", str(src), "--out", str(tmp_path / out)]) == 0
    for name in ("model.json", "residuals.csv"):
        assert ((tmp_path / "gappy" / name).read_bytes()
                == (tmp_path / "plain" / name).read_bytes())


def test_fit_legendre0b_records_endpoint(tmp_path):
    xs = np.linspace(0.0, 2.0, 101)
    path = tmp_path / "s.csv"
    _write_samples(path, xs, xs ** 2)
    out = tmp_path / "out"
    rc = main(["fit", "--family", "legendre0b", "--b", "2", "--k", "4",
               "--input", str(path), "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "model.json").read_text())
    assert doc["params"] == {"b": "2"}
    # moments come from Simpson sums, so the quadratic is recovered to
    # quadrature accuracy rather than exactly
    assert float(doc["diagnostics"]["l2_error"]) < 1e-4


# ----------------------------------------------------------------------
# fit: malformed input (exit 2) and domain violations (exit 3)
# ----------------------------------------------------------------------

def _fit_rc(tmp_path, csv_text, family="legendre", extra=()):
    path = tmp_path / "bad.csv"
    path.write_text(csv_text, encoding="utf-8")
    out = tmp_path / "out"
    return main(["fit", "--family", family, "--k", "4",
                 "--input", str(path), "--out", str(out), *extra])


def test_missing_file_is_bad_input(tmp_path, capsys):
    rc = main(["fit", "--family", "legendre", "--k", "4",
               "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert rc == EXIT_BAD_INPUT
    assert "not found" in capsys.readouterr().err


def test_empty_file_is_bad_input(tmp_path, capsys):
    assert _fit_rc(tmp_path, "") == EXIT_BAD_INPUT
    assert "empty" in capsys.readouterr().err


def test_wrong_header_is_bad_input(tmp_path, capsys):
    assert _fit_rc(tmp_path, "a,b\n0,1\n") == EXIT_BAD_INPUT
    assert "header" in capsys.readouterr().err


def test_header_only_is_bad_input(tmp_path, capsys):
    assert _fit_rc(tmp_path, "x,y\n") == EXIT_BAD_INPUT
    assert "no data rows" in capsys.readouterr().err


def test_three_fields_is_bad_input(tmp_path, capsys):
    assert _fit_rc(tmp_path, "x,y\n0,1,2\n") == EXIT_BAD_INPUT
    assert "two fields" in capsys.readouterr().err


def test_non_numeric_is_bad_input(tmp_path, capsys):
    assert _fit_rc(tmp_path, "x,y\n0.0,oops\n") == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "non-numeric" in err and ":2:" in err


def test_odd_panel_count_is_bad_input(tmp_path, capsys):
    xs = np.linspace(-1.0, 1.0, 100)          # 99 panels
    lines = "x,y\n" + "".join(f"{x},{x * x}\n" for x in xs)
    assert _fit_rc(tmp_path, lines) == EXIT_BAD_INPUT
    assert "panel" in capsys.readouterr().err.lower()


def test_crooked_grid_is_bad_input(tmp_path, capsys):
    xs = np.sqrt(np.linspace(0.01, 1.0, 101))  # monotone but not uniform
    lines = "x,y\n" + "".join(f"{x:.17g},{x * x:.17g}\n" for x in xs)
    assert _fit_rc(tmp_path, lines) == EXIT_BAD_INPUT
    assert "uniform" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_value_is_bad_input(tmp_path, capsys, token):
    lines = f"x,y\n-1,0\n-0.5,1\n0,{token}\n0.5,1\n1,0\n"
    assert _fit_rc(tmp_path, lines) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("b, k, ys, message", [
    # order-10 moments of y = 1e300 on [0, 10] leave the float range
    (10, 10, np.full(101, 1e300), "overflow the float range"),
    # finite moments, but an order-20 coefficient does not fit in a float
    (1, 20, 1e300 * (-1.0) ** np.arange(101), "overflow the float range"),
    # a finite order-3 fit, but its squared residuals overflow: without the
    # check model.json would carry an "Infinity" token
    (10, 3, np.full(101, 1e300), "residuals overflow"),
], ids=["moments", "coefficients", "residuals"])
def test_float_overflow_is_bad_input(tmp_path, capsys, b, k, ys, message):
    path = tmp_path / "huge.csv"
    _write_samples(path, np.linspace(0.0, b, 101), ys)
    out = tmp_path / "out"
    rc = main(["fit", "--family", "legendre0b", "--b", str(b), "--k", str(k),
               "--input", str(path), "--out", str(out)])
    assert rc == EXIT_BAD_INPUT
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_float_overflow_names_the_moment(tmp_path, capsys):
    """The exit-2 message carries ``FloatRangeError``'s own text."""
    path = tmp_path / "huge.csv"
    _write_samples(path, np.linspace(0.0, 10.0, 101), np.full(101, 1e300))
    rc = main(["fit", "--family", "legendre0b", "--b", "10", "--k", "10",
               "--input", str(path), "--out", str(tmp_path / "out")])
    assert rc == EXIT_BAD_INPUT
    assert ("overflow the float range: moment mu_9 of simpson-samples(n=101) "
            "overflows the float range") in capsys.readouterr().err


def test_fit_too_many_digits_is_bad_input(tmp_path, capsys):
    # b = 1 + 10^-80 carries 81 digits above and below, so the order-64
    # exact coefficients run past the interpreter's int-to-str digit limit;
    # a grid over [0, 1] spans [0, b] to well within a step
    path = tmp_path / "unit.csv"
    xs = np.linspace(0.0, 1.0, 101)
    _write_samples(path, xs, np.cos(3.0 * xs))
    out = tmp_path / "out"
    b = f"{10 ** 80 + 1}/{10 ** 80}"
    rc = main(["fit", "--family", "legendre0b", "--b", b, "--k", "64",
               "--input", str(path), "--out", str(out)])
    assert rc == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("biopoly: ") and "more digits" in err
    # a smaller --b would not help here: b is already close to 1
    assert "a --b with fewer digits or a smaller --k" in err
    assert not out.exists()


def test_tables_too_many_digits_is_bad_input(capsys):
    rc = main(["tables", "--family", "legendre0b", "--b", "1e400", "--k", "20"])
    assert rc == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("biopoly: ") and "more digits" in captured.err


_GOOD_CSV = b"x,y\n-1,0\n-0.5,1\n0,1\n0.5,1\n1,0\n"


@pytest.mark.parametrize("argv, csv_bytes, out_is_file", [
    (["fit"], _GOOD_CSV.replace(b"0.5,1", b"0.5,\xff"), False),
    (["fit"], _GOOD_CSV.replace(b"0.5,1", b"0.5," + b"1" * 200_000), False),
    (["fit"], _GOOD_CSV, True),
    (["example", "1"], _GOOD_CSV, True),
    (["example", "1", "--seed", "-1"], _GOOD_CSV, False),
], ids=["non-utf8-csv", "oversize-csv-field", "fit-out-is-a-file",
        "example-out-is-a-file", "negative-seed"])
def test_unusable_input_or_output_is_bad_input(tmp_path, capsys, argv,
                                               csv_bytes, out_is_file):
    csv = tmp_path / "in.csv"
    csv.write_bytes(csv_bytes)
    out = tmp_path / "out"
    if out_is_file:
        out.write_text("taken\n", encoding="utf-8")
    if argv[0] == "fit":
        argv = argv + ["--family", "legendre", "--k", "2", "--input", str(csv)]
    assert main(argv + ["--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("biopoly: ") and "Traceback" not in err
    assert not (out / "model.json").exists()
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("taken", ["model.json", "residuals.csv"])
def test_fit_writes_both_files_or_neither(sym_csv, tmp_path, capsys, taken):
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    rc = main(["fit", "--family", "legendre", "--k", "8",
               "--input", str(sym_csv), "--out", str(out)])
    assert rc == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("biopoly: ") and "Traceback" not in err
    assert (out / taken).is_dir()
    assert sorted(p.name for p in out.iterdir()) == [taken]


@pytest.mark.parametrize("number, csv_name", [("1", "chirp_fits.csv"),
                                              ("2", "decay_fits.csv"),
                                              ("3", "wiggle_fits.csv")])
def test_example_writes_both_files_or_neither(tmp_path, capsys, number,
                                              csv_name):
    out = tmp_path / "out"
    (out / csv_name).mkdir(parents=True)
    assert main(["example", number, "--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("biopoly: ") and "Traceback" not in err
    assert sorted(p.name for p in out.iterdir()) == [csv_name]
    assert not any((out / csv_name).iterdir())


def test_zero_residual_bic_is_null(tmp_path, capsys):
    path = tmp_path / "const.csv"
    _write_samples(path, np.linspace(0.0, 1.0, 11), np.full(11, 2.5))
    out = tmp_path / "out"
    rc = main(["fit", "--family", "legendre0b", "--k", "0",
               "--input", str(path), "--out", str(out)])
    assert rc == 0
    assert "bic=-inf" in capsys.readouterr().out
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    doc = json.loads((out / "model.json").read_text(), parse_constant=reject)
    assert doc["coeffs_exact"] == ["5/2"]
    assert doc["diagnostics"]["l2_error"] == 0.0
    assert doc["diagnostics"]["bic"] is None


def test_out_of_domain_samples_exit_3(tmp_path, capsys):
    xs = np.linspace(0.0, 1.5, 101)
    lines = "x,y\n" + "".join(f"{x},{x}\n" for x in xs)
    assert _fit_rc(tmp_path, lines) == EXIT_DOMAIN
    assert "lives on" in capsys.readouterr().err


@pytest.mark.parametrize("b", ["1e400", "1e5000", "1e-400"])
def test_out_of_domain_with_huge_b_exit_3(tmp_path, capsys, b):
    # past the float range, past the int-to-str digit limit, and below
    # the float range, where float(b) would read 0
    path = tmp_path / "in.csv"
    _write_samples(path, [-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    out = tmp_path / "out"
    rc = main(["fit", "--family", "legendre0b", "--b", b, "--k", "2",
               "--input", str(path), "--out", str(out)])
    assert rc == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("biopoly: ") and f"lives on [0, {b}]" in err
    assert not out.exists()


@pytest.mark.parametrize("b, lo, hi", [(None, 0.25, 0.75), ("1e5000", 0.0, 1.0)],
                         ids=["middle-half", "huge-b"])
def test_samples_not_spanning_the_interval_exit_3(tmp_path, capsys, b, lo, hi):
    # their moments would fit y = 1 extended by zero over the rest of [0, b]
    path = tmp_path / "in.csv"
    xs = np.linspace(lo, hi, 201)
    _write_samples(path, xs, np.ones_like(xs))
    out = tmp_path / "out"
    argv = ["fit", "--family", "legendre0b", "--k", "4",
            "--input", str(path), "--out", str(out)]
    assert main(argv + (["--b", b] if b else [])) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("biopoly: ") and "not the whole interval" in err
    assert not out.exists()


@pytest.mark.parametrize("end", ["lo", "hi"])
@pytest.mark.parametrize("steps, rc", [(0.5, 0), (2.0, EXIT_DOMAIN)])
def test_grid_past_an_end_within_the_grid_tolerance_fits(tmp_path, capsys,
                                                         end, steps, rc):
    """A grid may run past an end of the interval by up to
    UNIFORM_GRID_RTOL of a step, as it may fall short of it by as much."""
    over = steps * UNIFORM_GRID_RTOL / 200       # a step is about 1/200
    lo, hi = (-over, 1.0) if end == "lo" else (0.0, 1.0 + over)
    path = tmp_path / "in.csv"
    xs = np.linspace(lo, hi, 201)
    _write_samples(path, xs, np.cos(3.0 * xs))
    out = tmp_path / "out"
    assert main(["fit", "--family", "legendre0b", "--k", "4",
                 "--input", str(path), "--out", str(out)]) == rc
    err = capsys.readouterr().err
    if rc:
        assert "lives on [0, 1]" in err and "not the whole interval" in err
        assert not out.exists()
    else:
        assert err == "" and (out / "model.json").exists()


def test_sampled_half_line_fit_exit_3(tmp_path, capsys):
    xs = np.linspace(0.0, 10.0, 101)
    lines = "x,y\n" + "".join(f"{x},{np.exp(-x)}\n" for x in xs)
    assert _fit_rc(tmp_path, lines, family="laguerre") == EXIT_DOMAIN
    assert "laguerre" in capsys.readouterr().err


def test_sampled_chebyshev_fit_exit_3(tmp_path, capsys):
    xs = np.linspace(-0.9, 0.9, 101)
    lines = "x,y\n" + "".join(f"{x},{x * x}\n" for x in xs)
    assert _fit_rc(tmp_path, lines, family="chebyshev") == EXIT_DOMAIN
    assert "unit weight" in capsys.readouterr().err


def test_k_out_of_range_is_bad_input(sym_csv, tmp_path, capsys):
    rc = main(["fit", "--family", "legendre", "--k", "65",
               "--input", str(sym_csv), "--out", str(tmp_path / "o")])
    assert rc == EXIT_BAD_INPUT
    assert "--k" in capsys.readouterr().err


def test_too_many_removals_is_bad_input(sym_csv, tmp_path, capsys):
    rc = main(["fit", "--family", "legendre", "--k", "4", "--removals", "5",
               "--input", str(sym_csv), "--out", str(tmp_path / "o")])
    assert rc == EXIT_BAD_INPUT


def test_b_rejected_outside_legendre0b(sym_csv, tmp_path, capsys):
    rc = main(["fit", "--family", "legendre", "--b", "2", "--k", "4",
               "--input", str(sym_csv), "--out", str(tmp_path / "o")])
    assert rc == EXIT_BAD_INPUT
    assert "legendre0b" in capsys.readouterr().err


@pytest.mark.parametrize("bad_b, why", [
    ("zero?", "Invalid literal for Fraction: 'zero?'"),
    ("0", "legendre0b needs a rational b > 0"),
    ("-3", "legendre0b needs a rational b > 0"),
], ids=["zero?", "0", "-3"])
def test_bad_endpoint_values(capsys, bad_b, why):
    rc = main(["tables", "--family", "legendre0b", "--b", bad_b, "--k", "1"])
    assert rc == EXIT_BAD_INPUT
    assert capsys.readouterr().err == f"biopoly: --family legendre0b --b {bad_b}: {why}\n"


@pytest.mark.parametrize("verb", ["fit", "tables"])
def test_zero_denominator_b_is_bad_input(sym_csv, tmp_path, capsys, verb):
    out = tmp_path / "o"
    argv = ([verb, "--family", "legendre0b", "--b", "1/0", "--k", "4"]
            + (["--input", str(sym_csv), "--out", str(out)] if verb == "fit"
               else []))
    assert main(argv) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("biopoly: --family legendre0b --b 1/0: "
                            "its denominator is zero\n")
    assert not out.exists()


def test_unknown_verb_raises_system_exit():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# ----------------------------------------------------------------------
# tables: exact printed rows
# ----------------------------------------------------------------------

def _table_lines(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out.strip().splitlines()


def test_tables_laguerre_k1(capsys):
    lines = _table_lines(capsys, ["tables", "--family", "laguerre", "--k", "1"])
    assert lines[0].startswith("laguerre, order 1")
    assert lines[1] == "beta_0: 2 - x"
    assert lines[2] == "beta_1: -1 + x"


def test_tables_order_zero(capsys):
    lines = _table_lines(capsys, ["tables", "--family", "legendre", "--k", "0"])
    assert lines[1:] == ["beta_0: 1/2"]


def test_tables_unit_interval_k2_inverse_hilbert(capsys):
    lines = _table_lines(capsys, ["tables", "--family", "legendre0b", "--k", "2"])
    assert lines[1] == "beta_0: 9 - 36 x + 30 x^2"
    assert lines[2] == "beta_1: -36 + 192 x - 180 x^2"
    assert lines[3] == "beta_2: 30 - 180 x + 180 x^2"


def test_tables_scaled_interval(capsys):
    lines = _table_lines(capsys,
                         ["tables", "--family", "legendre0b", "--b", "2",
                          "--k", "1"])
    assert lines[0].startswith("legendre0b(b=2), order 1")
    assert lines[1] == "beta_0: 2 - 3/2 x"
    assert lines[2] == "beta_1: -3/2 + 3/2 x"


def test_tables_chebyshev_carries_pi_prefix(capsys):
    lines = _table_lines(capsys, ["tables", "--family", "chebyshev", "--k", "1"])
    assert lines[1] == "beta_0: (1/pi) * (1)"
    assert lines[2] == "beta_1: (1/pi) * (2 x)"


def test_tables_order_capped(capsys):
    assert main(["tables", "--family", "laguerre", "--k", "21"]) == EXIT_BAD_INPUT


# ----------------------------------------------------------------------
# example: deterministic outputs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("number, csv_name, line", [
    (1, "chirp_fits.csv", "noisy chirp (seed=7)"),
    (2, "decay_fits.csv", "max|err| on [0,10]"),
    (3, "wiggle_fits.csv", "baseline k=36"),
], ids=["1", "2", "3"])
def test_example_is_reproducible(number, csv_name, line, tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["example", str(number), "--seed", "7",
                     "--out", str(out)]) == 0
    for name in ("report.json", csv_name):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    out = capsys.readouterr().out
    assert line in out


def test_example_1_seed_changes_noise(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["example", "1", "--seed", "7", "--out", str(out_a)])
    main(["example", "1", "--seed", "8", "--out", str(out_b)])
    assert ((out_a / "report.json").read_bytes()
            != (out_b / "report.json").read_bytes())


def test_example_2_reports_four_fits(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["example", "2", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["fits"]) == 4
    assert (out / "decay_fits.csv").exists()
    assert capsys.readouterr().out.count("max|err|") == 4


def test_example_3_reports_conditioning(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["example", "3", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["baseline"]["condition_estimate"] >= 1e15
    assert report["legendre"]["rms_error"] <= 1e-4
    assert report["chebyshev"]["rms_error"] <= 1e-4
    assert "baseline" in capsys.readouterr().out


def test_example_3_evaluates_each_model_once_on_its_grid(tmp_path, monkeypatch):
    """The 2001-point grid's errors and CSV columns share one evaluation."""
    shapes = []
    real = biorth.FitModel.__call__

    def counting_call(model, xs):
        shapes.append(np.shape(xs))
        return real(model, xs)

    monkeypatch.setattr(biorth.FitModel, "__call__", counting_call)
    assert main(["example", "3", "--out", str(tmp_path / "o")]) == 0
    assert shapes.count((2001,)) == 2


@pytest.mark.parametrize("number, shapes", [
    # each fit once on l2_error's Simpson nodes against the truth, which
    # are max_abs_error's grid too, and once at the samples for its BIC
    # and its CSV column
    (1, [(501,)] * 3 + [(10001,)] * 3),
    # each fit once on the CSV grid; a legendre0b fit once more on its
    # Simpson nodes, a laguerre fit on its Gauss nodes and on the
    # max_abs_error grid
    (2, [(96,)] * 2 + [(1001,)] * 4 + [(10001,)] * 4),
], ids=["1", "2"])
def test_examples_evaluate_each_model_once_per_grid(number, shapes, tmp_path,
                                                    monkeypatch):
    seen = []
    real = biorth.FitModel.__call__

    def counting_call(model, xs):
        seen.append(np.shape(xs))
        return real(model, xs)

    monkeypatch.setattr(biorth.FitModel, "__call__", counting_call)
    assert main(["example", str(number), "--out", str(tmp_path / "o")]) == 0
    assert sorted(seen) == shapes


@pytest.mark.parametrize("module", [cli, demos], ids=["cli", "demos"])
def test_no_private_regress_name_is_imported(module):
    """The command line and the demos score fits through regress's public
    functions only, so no copy of a scoring rule grows back beside them."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module in ("regress", "biopoly.regress")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


# ----------------------------------------------------------------------
# the CSV text both verbs write
# ----------------------------------------------------------------------

def _csv_per_row(header, columns):
    """The per-row formatter ``_csv_text`` replaced, kept as the reference."""
    return ",".join(header) + "\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in zip(*columns))


_csv_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308,
                     float("inf"), float("-inf"), float("nan")]))


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.integers(1, 8), st.integers(0, 12)).flatmap(
    lambda shape: st.lists(st.lists(_csv_values, min_size=shape[1],
                                    max_size=shape[1]),
                           min_size=shape[0], max_size=shape[0])))
def test_csv_text_matches_the_per_row_formatter(columns):
    columns = [np.array(c, dtype=float) for c in columns]
    header = [f"c{i}" for i in range(len(columns))]
    assert _csv_text(header, columns) == _csv_per_row(header, columns)


# ----------------------------------------------------------------------
# start-up
# ----------------------------------------------------------------------

def test_import_leaves_the_thread_pool_unloaded():
    """``import concurrent.futures`` waits for a threaded evaluation, so
    the import every command pays does not include it."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys; import biopoly, biopoly.cli; "
             "print('concurrent.futures' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], cwd=src,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_the_package_needs_only_its_runtime_dependencies(sym_csv, tmp_path):
    """scipy and hypothesis are test dependencies: with both blocked, the
    package and its CLI import, and ``biopoly fit`` writes its files."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys\n"
             "sys.modules['scipy'] = sys.modules['hypothesis'] = None\n"
             "import biopoly, biopoly.cli\n"
             "sys.exit(biopoly.cli.main(['fit', '--family', 'legendre', '--k', '6',"
             " '--removals', '2', '--input', sys.argv[1], '--out', sys.argv[2]]))")
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-c", probe, str(sym_csv), str(out)],
                          cwd=src, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in out.iterdir()) == ["model.json", "residuals.csv"]


def test_the_exact_layer_and_tables_need_no_numpy():
    """numpy is loaded only where floats are computed: with it blocked,
    the package and its CLI import, ``tables`` and ``--help`` exit 0, a
    fit from exact moments runs, and a saved model loads."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import math, sys\n"
        "sys.modules['numpy'] = None\n"
        "import biopoly, biopoly.cli\n"
        "from biopoly import cli\n"
        "assert cli.main(['tables', '--family', 'laguerre', '--k', '3']) == 0\n"
        "try:\n"
        "    cli.main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "fam = biopoly.FamilySpec.laguerre()\n"
        "mu = [math.factorial(n) + math.factorial(n + 1) for n in range(7)]\n"
        "mv = biopoly.MomentVector(mu, fam.space, 'exact', mu)\n"
        "model = biopoly.fit(fam, 6, mv, removals=5)\n"
        "assert (model.exponents, model.coeffs_exact) == ((0, 1), (1, 1)), model\n"
        "doc = {'family': 'laguerre', 'params': {}, 'k': 2,\n"
        "       'exponents': [0, 2], 'coeffs': ['1', '0.5']}\n"
        "assert isinstance(cli.load_model(doc), biopoly.FitModel)\n")
    done = subprocess.run([sys.executable, "-c", probe], cwd=src,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("laguerre, order 3:")


def test_fit_loads_numpy_but_not_the_demos(sym_csv, tmp_path):
    """``import biopoly, biopoly.cli`` loads no numpy, and a ``biopoly
    fit`` run loads neither the demos nor what only they use."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys\n"
             "import biopoly, biopoly.cli\n"
             "print('numpy' in sys.modules)\n"
             "assert biopoly.cli.main(['fit', '--family', 'legendre', '--k', '6',"
             " '--input', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
             "print(sorted(m for m in ('numpy', 'biopoly.demos', 'biopoly.baseline',"
             " 'biopoly.targets') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe, str(sym_csv),
                           str(tmp_path / "out")],
                          cwd=src, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "False"
    assert done.stdout.splitlines()[-1] == "['numpy']"


def test_module_run_loads_one_cli_module(tmp_path):
    """``python -m biopoly.cli example N``, the form the benchmark runs,
    executes the module as ``__main__``; ``demos`` takes its writers from
    that run, where it once made the import system load a second
    ``biopoly.cli`` beside it."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "biopoly.cli",
                           "example", "2", "--out", str(tmp_path / "out")],
                          cwd=src, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")]
    assert "biopoly.demos" in imported
    assert "biopoly.cli" not in imported


def test_the_package_resolves_its_names_on_first_access():
    """Each name in ``__all__`` is its submodule's object, ``dir`` lists
    them, and an unknown name is an ``AttributeError``."""
    for name in biopoly.__all__:
        home = importlib.import_module(f"biopoly.{biopoly._HOME[name]}")
        assert getattr(biopoly, name) is getattr(home, name), name
    assert set(biopoly.__all__) <= set(dir(biopoly))
    assert "__version__" in dir(biopoly)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        biopoly.no_such_name
