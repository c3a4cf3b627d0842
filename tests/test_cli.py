"""Command-line interface: studies, weight-table management, output formats."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import ctquad
from ctquad import cli
from ctquad import weights as wt
from ctquad.quad_core import pair_orders

from helpers import active_modes


def run_cli(*argv: str) -> int:
    return cli.main(list(argv))


# --------------------------------------------------------------------------
# benchmark integrands
# --------------------------------------------------------------------------

def test_smooth_factor_window_decay():
    # the window kills the integrand outside |x| ~ 1.7, so the truncated
    # domain misses less than roundoff
    assert cli.smooth_factor(1.7, 0.0) < 1e-16
    assert cli.smooth_factor(0.0, -1.7) < 1e-16
    assert 0.5 < cli.smooth_factor(0.0, 0.0) < 1.0


# (lowest order, highest order, largest error in ulp) per range of orders
BESSEL_ULP_BOUNDS = [(1.0, 3.0, 6.0), (3.0, 8.0, 8.0), (8.0, 31.0, 10.0)]


@pytest.mark.parametrize("lo, hi, bound", BESSEL_ULP_BOUNDS)
def test_bessel_series_against_mpmath(lo, hi, bound):
    # J_nu(3) from the ascending series against 40-digit mpmath at 120
    # random orders per range, 360 over [1, 31].  The series reads at most
    # 5.2, 5.2 and 6.4 ulp here (median 0.9, 0.7, 1.0); scipy.special.jv,
    # which it replaced, 200, 28 and 104 ulp (median 6.2, 5.0, 20)
    import mpmath

    nu = np.random.default_rng(0).uniform(lo, hi, 120)
    got = cli._bessel_j_at_3(nu)
    with mpmath.workdps(40):
        want = [mpmath.besselj(float(n), 3) for n in nu]
    ulps = [float(abs(mpmath.mpf(float(g)) - w)) / np.spacing(float(w))
            for g, w in zip(got, want)]
    assert max(ulps) <= bound, (max(ulps), nu[int(np.argmax(ulps))])
    # elementwise: one order at a time, as the rules call it, gives the
    # same bits as the whole array
    assert [cli._bessel_j_at_3(n) for n in nu[:20]] == list(got[:20])
    assert cli._bessel_j_at_3(np.asarray(2.5)) == cli._bessel_j_at_3([2.5])[0]


def test_bessel_series_is_zero_at_far_orders():
    # a coarse grid (h0 = 6 reaches |x| = 42) asks for orders past 1.5**nu's
    # overflow at 1750; J is far below double range there, and reads 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = cli._bessel_j_at_3(np.array([172.0, 200.0, 1800.0, 1e6]))
    assert far.tolist() == [0.0, 0.0, 0.0, 0.0]


def test_general_benchmark_structure():
    s = cli.general_benchmark_function()
    assert [t.k for t in s.terms] == [0, 1, 2, 3]
    # remainder after s_0..s_3 is the |x|^3 tail: check amplitude at r=0.1
    r, psi = 0.1, 0.7
    dx, dy = r * math.cos(psi), r * math.sin(psi)
    rem = float(s.remainder(3, np.asarray(dx), np.asarray(dy)))
    tail = r ** 3 * float(cli.radial_tail(r, psi))
    assert rem == pytest.approx(tail, rel=1e-9)


def test_angular_factors_are_low_order_trig():
    # each angular factor must be resolved far below the 16-mode table cap
    from ctquad.quad_core import SingularTerm
    for phi in (cli.angular_phi0, cli.angular_phi1, cli.angular_phi2,
                cli.angular_phi3):
        term = SingularTerm.from_callable(1, phi)
        assert max(active_modes(term)) <= 4


# --------------------------------------------------------------------------
# config and order estimation
# --------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="ratio"):
        cli.StudyConfig(study="quad2d-sk", h0=0.2, ratio=1.0)
    with pytest.raises(ValueError, match="count"):
        cli.StudyConfig(study="quad2d-sk", h0=0.2, count=2)
    with pytest.raises(ValueError, match="study"):
        cli.StudyConfig(study="nope", h0=0.2)
    with pytest.raises(ValueError, match="composite"):
        cli.StudyConfig(study="quad2d-general", h0=0.2, p_values=(1,))
    with pytest.raises(ValueError, match="kernel"):
        cli.StudyConfig(study="ibim3d", h0=0.1, kernels=("SL", "XX"))


@pytest.mark.parametrize("study, field, value", [
    ("quad2d-sk", "h0", math.inf),
    ("quad2d-sk", "h0", math.nan),
    ("quad2d-general", "ratio", math.inf),
    ("quad2d-sk", "alpha", math.nan),
    ("quad2d-general", "beta", -math.inf),
    ("ibim3d", "eps", math.inf),
])
def test_config_refuses_non_finite_values(study, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        cli.StudyConfig(**{"study": study, "h0": 0.2, field: value})


@pytest.mark.parametrize("argv, message", [
    # each level used to append twice to the one corrected-1 value list:
    # error 0.0 and order nan
    (("--study", "sk", "--p", "1", "1"),
     "p values must be distinct, got [1, 1], which repeats 1"),
    # every row used to be printed twice
    (("--study", "sk", "--k", "0", "2", "0"),
     "k values must be distinct, got [0, 2, 0], which repeats 0"),
    (("--study", "general", "--p", "3", "2", "3", "2"),
     "p values must be distinct, got [3, 2, 3, 2], which repeats 2, 3"),
    # a traceback from locate_singularity
    (("--alpha", "nan"), "alpha must be finite, got nan"),
    # a ZeroDivisionError traceback: the second spacing is 0
    (("--ratio", "inf"), "ratio must be finite, got inf"),
], ids=["sk-p-twice", "k-twice", "general-p-twice", "alpha-nan", "ratio-inf"])
def test_quad2d_run_refuses_degenerate_configs(capsys, argv, message):
    assert run_cli("quad2d", "run", "--count", "3", *argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_config_hash_stable_and_sensitive():
    a = cli.StudyConfig(study="quad2d-sk", h0=0.4, p_values=(1, 2))
    b = cli.StudyConfig(study="quad2d-sk", h0=0.4, p_values=(1, 2))
    c = cli.StudyConfig(study="quad2d-sk", h0=0.3, p_values=(1, 2))
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_running_orders_and_observed_order():
    hs = cli.h_sequence(0.5, 2.0, 6)
    errors = [2.0 ** -(3 * i) for i in range(6)]  # exact order 3
    orders = pair_orders(errors, hs)
    assert len(orders) == 5
    assert all(o == pytest.approx(3.0) for o in orders)
    assert pair_orders([1e-3, 0.0, 1e-5], hs) == [None, None]
    assert cli.observed_order(errors, hs) == pytest.approx(3.0)


def test_observed_order_ignores_roundoff_floor():
    hs = cli.h_sequence(0.5, 2.0, 5)
    errors = [1e-3, 1.25e-4, 1.5625e-5, 3e-14, 2e-14]  # tail sinks into noise
    est = cli.observed_order(errors, hs)
    assert est == pytest.approx(3.0)


def test_h_sequence():
    hs = cli.h_sequence(0.4, 1.5, 3)
    assert hs == pytest.approx([0.4, 0.4 / 1.5, 0.4 / 2.25])


# --------------------------------------------------------------------------
# 2D studies (smoke scale)
# --------------------------------------------------------------------------

def test_sk_study_smoke_rows_and_orders():
    cfg = cli.StudyConfig(study="quad2d-sk", h0=0.3, count=6, k_values=(0,),
                          p_values=(1,))
    res = cli.run_quad2d(cfg)
    # one row per level per method, two methods
    assert len(res["rows"]) == 2 * cfg.count
    for method in ("punctured", "corrected-1"):
        rows = [r for r in res["rows"] if r["method"] == method]
        assert len(rows) == cfg.count
        assert rows[-1]["error"] is None and rows[-1]["order"] is None
        assert rows[0]["order"] is None
        assert all(r["error"] is not None for r in rows[:-1])
    by_method = {s["method"]: s for s in res["summary"]}
    assert by_method["punctured"]["expected_order"] == 1
    assert by_method["corrected-1"]["expected_order"] == 2
    assert abs(by_method["corrected-1"]["observed_order"] - 2.0) < 0.35


def test_general_study_smoke():
    cfg = cli.StudyConfig(study="quad2d-general", h0=0.3, count=6,
                          p_values=(2,))
    res = cli.run_quad2d(cfg)
    by_method = {s["method"]: s for s in res["summary"]}
    assert by_method["punctured"]["expected_order"] == 1
    assert by_method["composite-2"]["expected_order"] == 2
    assert abs(by_method["composite-2"]["observed_order"] - 2.0) < 0.35


def test_quad2d_run_has_one_weight_route(capsys):
    # weights come from the dual route only and the grid's half-width is
    # fixed by the smooth factor: no option or config field selects either
    for extra in (("--weights", "table"), ("--half-width", "2"),
                  ("--cache-dir", "x")):
        with pytest.raises(SystemExit) as exc:
            run_cli("quad2d", "run", "--study", "sk", "--count", "3", *extra)
        assert exc.value.code == 2, extra
        assert "unrecognized arguments" in capsys.readouterr().err
    fields = {f.name for f in dataclasses.fields(cli.StudyConfig)}
    assert not fields & {"weights_mode", "half_width"}


def test_missing_table_error_names_build_command(tmp_path):
    # the 3D study reads the (0,2) and (1,1) tables; an empty cache fails
    # with the command that builds the first
    cfg = cli.StudyConfig(study="ibim3d", h0=0.075, count=3)
    with pytest.raises(cli.CliError) as exc:
        cli.run_ibim3d(cfg, cache_dir=str(tmp_path))
    assert (f"ctquad weights build --k 0 --p 2 --cache-dir {tmp_path}"
            in str(exc.value))


@pytest.mark.parametrize("argv,name", [
    (("build", "--k", "0", "--p", "5"), "p"),
    (("build", "--k", "0", "--p", "1", "--grid-n", "1"), "grid_n"),
    (("build", "--k", "-1", "--p", "1"), "k"),
    (("build", "--k", "0", "--p", "1", "--n-modes", "-1"), "n_modes"),
    (("build", "--k", "0", "--p", "1", "--grid-n", "2", "--n-modes", "0",
      "--tol", "0"), "tol"),
    (("build", "--k", "0", "--p", "1", "--tol", "nan"), "tol"),
    (("info", "--k", "0", "--p", "5"), "p"),
    (("verify", "--k", "0", "--p", "5"), "p"),
], ids=["build-p5", "build-grid_n1", "build-k-1", "build-n_modes-1",
        "build-tol0", "build-tol_nan", "info-p5", "verify-p5"])
def test_bad_table_parameters_are_cli_errors(tmp_path, capsys, argv, name):
    # checked once where every table is named: exit status 2, the parameter
    # named, and nothing written to the cache
    cache = tmp_path / "cache"
    assert run_cli("weights", *argv, "--cache-dir", str(cache)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: table parameter {name} must be"), err
    assert "build it with" not in err
    assert not cache.exists()


def test_version_mismatch_refused(tmp_path, table11, capsys):
    stale = dataclasses.replace(table11, version="0.0.1")
    path = tmp_path / wt.table_filename(1, 1)
    wt.save_weight_table(stale, str(path))
    with pytest.raises(cli.CliError, match="--force"):
        cli.load_table_checked(1, 1, cache_dir=str(tmp_path))
    assert run_cli("weights", "info", "--cache-dir", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert f"{path.name}: refused" in out and "0.0.1" in out


def test_other_parameter_table_is_not_served(tmp_path, table11):
    # a cache holding only a (1,1) table built at another tol must not serve
    # it in place of the default one; the error lists it with the build command
    other = dataclasses.replace(table11, tol=1e-6)
    name = wt.table_filename(1, 1, tol=1e-6)
    wt.save_weight_table(other, str(tmp_path / name))
    assert not os.path.exists(wt.table_path(1, 1, cache_dir=str(tmp_path)))
    with pytest.raises(cli.CliError) as exc:
        cli.load_table_checked(1, 1, cache_dir=str(tmp_path))
    assert name in str(exc.value)
    assert "ctquad weights build --k 1 --p 1" in str(exc.value)
    served = cli.load_table_checked(1, 1, cache_dir=str(tmp_path), tol=1e-6)
    assert served.tol == 1e-6


def test_table_header_must_match_its_name_and_the_library(tmp_path):
    # a header no (1,1) build of the default parameters writes, saved under
    # that table's name, is refused with its path, the field and the
    # rebuild command, first for its cell, then for its parameters
    foreign = wt.WeightTable(
        k=1, p=1, tol=1e-6, n_modes=2, grid_n=4, domain_lo=0.25,
        stencil_offsets=((0, 0),), bump_r0=0.5, bump_R=2.0,
        data=np.ones((5, 4, 4, 1)), m_levels=np.zeros((5, 4, 4), dtype=np.int8))
    path = tmp_path / wt.table_filename(1, 1)
    wt.save_weight_table(foreign, str(path))
    with pytest.raises(cli.CliError, match="header field domain_lo is 0.25, "
                                           "expected -0.5") as exc:
        cli.load_table_checked(1, 1, cache_dir=str(tmp_path))
    assert str(path) in str(exc.value) and "--force" in str(exc.value)
    wt.save_weight_table(dataclasses.replace(
        foreign, domain_lo=-0.5, bump_r0=wt.DEFAULT_BUMP.r0,
        bump_R=wt.DEFAULT_BUMP.R), str(path))
    with pytest.raises(cli.CliError, match="header field tol is 1e-06, "
                                           "expected 1e-08") as exc:
        cli.load_table_checked(1, 1, cache_dir=str(tmp_path))
    assert str(path) in str(exc.value) and "--force" in str(exc.value)


def test_refused_table_file_is_a_cli_error(tmp_path, table11, capsys):
    # a truncated or foreign cache file ends the command with exit status 2,
    # its path and the rebuild command; the cache listing reports it
    path11 = tmp_path / wt.table_filename(1, 1)
    wt.save_weight_table(table11, str(path11))
    blob = path11.read_bytes()
    path11.write_bytes(blob[:len(blob) // 2])
    path02 = tmp_path / wt.table_filename(0, 2)
    path02.write_bytes(b"NOTATBLE" + b"\x00" * 64)
    for k, p, path, why in ((1, 1, path11, "truncated"),
                            (0, 2, path02, "bad magic")):
        rc = run_cli("weights", "info", "--k", str(k), "--p", str(p),
                     "--cache-dir", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert why in err and str(path) in err
        assert (f"ctquad weights build --k {k} --p {p} --cache-dir {tmp_path} "
                f"--force") in err
    rc = run_cli("weights", "info", "--cache-dir", str(tmp_path))
    assert rc == 0
    out = capsys.readouterr().out
    assert f"{path11.name}: refused" in out and "truncated" in out
    assert f"{path02.name}: refused" in out and "bad magic" in out


def test_weights_build_refuses_truncated_cache_hit(tmp_path, capsys):
    # without --force an existing file is a cache hit: an intact one is
    # served, a truncated one ends the build with exit status 2, its path and
    # the rebuild command
    name = wt.table_filename(1, 1)
    fixture = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "tables", name)
    with open(fixture, "rb") as f:
        blob = f.read()
    path = tmp_path / name
    path.write_bytes(blob)
    argv = ("weights", "build", "--k", "1", "--p", "1",
            "--cache-dir", str(tmp_path))
    assert run_cli(*argv) == 0
    assert "k=1 p=1" in capsys.readouterr().out
    path.write_bytes(blob[:len(blob) // 2])
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "truncated" in err and str(path) in err
    assert (f"ctquad weights build --k 1 --p 1 --cache-dir {tmp_path} "
            f"--force") in err


# --------------------------------------------------------------------------
# output formats
# --------------------------------------------------------------------------

def test_csv_prelude_and_rfc4180(tmp_path):
    out = tmp_path / "study.csv"
    rc = run_cli("quad2d", "run", "--study", "sk", "--k", "0", "--p", "1",
                 "--count", "3", "--h0", "0.3", "--out", str(out))
    assert rc == 0
    text = out.read_bytes().decode()
    lines = text.split("\r\n")
    meta = [ln for ln in lines if ln.startswith("# ")]
    keys = {ln.split(":")[0][2:] for ln in meta}
    assert {"config_hash", "library_version", "table_format"} <= keys
    body = "\n".join(ln for ln in lines if ln and not ln.startswith("# "))
    rows = list(csv.DictReader(io.StringIO(body)))
    # 3 levels x 2 methods
    assert len(rows) == 6
    assert set(rows[0]) == {"study", "k", "method", "h", "error", "order"}
    # JSON sidecar carries the same config hash
    payload = json.loads((tmp_path / "study.json").read_text())
    chash = next(ln for ln in meta if "config_hash" in ln).split(": ")[1]
    assert payload["metadata"]["config_hash"] == chash


def test_csv_bit_identical_reruns(tmp_path):
    args = ("quad2d", "run", "--study", "general", "--p", "2", "--count", "3",
            "--h0", "0.3")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_stdout_csv_when_no_out(capsys):
    rc = run_cli("quad2d", "run", "--study", "sk", "--k", "1", "--p", "1",
                 "--count", "3", "--h0", "0.3")
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("# ")
    assert "punctured" in captured.out
    assert "observed order" in captured.err


# --------------------------------------------------------------------------
# weights subcommands
# --------------------------------------------------------------------------

@pytest.mark.usefixtures("table02")
def test_weights_info_single(capsys):
    rc = run_cli("weights", "info", "--k", "0", "--p", "2")
    assert rc == 0
    out = capsys.readouterr().out
    assert "k=0 p=2" in out
    assert "tol=1.0e-08" in out
    assert "h* = " in out


@pytest.mark.usefixtures("table02")
def test_weights_info_listing(capsys):
    rc = run_cli("weights", "info")
    assert rc == 0
    out = capsys.readouterr().out
    assert "k=0 p=2" in out


@pytest.mark.parametrize("k, p", [(0, 2), (1, 1)])
def test_weights_verify_fresh_table_passes(request, capsys, k, p):
    request.getfixturevalue(f"table{k}{p}")
    rc = run_cli("weights", "verify", "--k", str(k), "--p", str(p),
                 "--entries", "2", "--seed", "5")
    assert rc == 0
    out = capsys.readouterr().out
    assert "all entries verified" in out


@pytest.mark.parametrize("entries", ["0", "-3"])
def test_weights_verify_refuses_fewer_than_one_entry(tmp_path, capsys, entries):
    # checking no entry must not read as "all entries verified"
    rc = run_cli("weights", "verify", "--k", "1", "--p", "1",
                 "--entries", entries, "--cache-dir", str(tmp_path))
    assert rc == 2
    captured = capsys.readouterr()
    assert f"--entries must be at least 1, got {entries}" in captured.err
    assert "verified" not in captured.out


@pytest.mark.parametrize("processes", ["0", "-2"])
def test_weights_build_refuses_fewer_than_one_process(tmp_path, capsys, processes):
    # checked before the cache is read: neither a build nor a cache hit
    # takes 0 for the default pool or -2 for one process
    small = ("weights", "build", "--k", "1", "--p", "1", "--n-modes", "0",
             "--grid-n", "2", "--cache-dir", str(tmp_path))

    def refused():
        assert run_cli(*small, "--processes", processes) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: --processes must be at least 1, "
                                f"got {processes}\n")
        assert captured.out == ""

    refused()
    assert os.listdir(tmp_path) == []
    assert run_cli(*small) == 0
    capsys.readouterr()
    refused()


def test_weights_verify_detects_corruption(tmp_path, table11, capsys):
    broken = dataclasses.replace(table11, data=table11.data + 1e-3)
    path = tmp_path / wt.table_filename(1, 1)
    wt.save_weight_table(broken, str(path))
    rc = run_cli("weights", "verify", "--k", "1", "--p", "1",
                 "--entries", "2", "--seed", "5", "--cache-dir", str(tmp_path))
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_weights_verify_judges_off_node_entries_by_dual_route(
        tmp_path, capsys, monkeypatch):
    # a sweep that returns biased weights must not decide any entry: every
    # one, the stencil node (0, 0) of the (k=1, p=1) table included, is
    # recomputed by the dual-lattice limit, which shares no code with the
    # sweep
    wt.build_weight_table(1, 1, n_modes=2, grid_n=3, processes=1,
                          cache_dir=str(tmp_path))
    sweep = wt._table_point

    def biased(args):
        mi, ni, w, lev = sweep(args)
        return mi, ni, w + 1e-3, lev

    monkeypatch.setattr(wt, "_table_point", biased)
    rc = run_cli("weights", "verify", "--k", "1", "--p", "1", "--entries", "9",
                 "--seed", "3", "--n-modes", "2", "--grid-n", "3",
                 "--cache-dir", str(tmp_path))
    lines = capsys.readouterr().out.splitlines()[1:-1]
    on_node = [ln for ln in lines if "(+0.00000, +0.00000)" in ln]
    off_node = [ln for ln in lines if ln not in on_node]
    assert on_node and off_node
    assert all(" dual " in ln and "[ok]" in ln for ln in lines)
    assert rc == 0


def test_weights_build_cache_roundtrip(tmp_path, capsys):
    # grid_n=3, n_modes=1 keeps the build to a few seconds
    rc = run_cli("weights", "build", "--k", "0", "--p", "1", "--grid-n", "3",
                 "--n-modes", "1", "--cache-dir", str(tmp_path))
    assert rc == 0
    files = sorted(os.listdir(tmp_path))
    # the table is the cache's one file: no metadata sidecar beside it
    assert len(files) == 1 and files[0].endswith(".ctwt")
    out = capsys.readouterr().out
    assert "k=0 p=1" in out


# --------------------------------------------------------------------------
# 3D study plumbing
# --------------------------------------------------------------------------

def test_ibim3d_eps_violation_aborts():
    cfg = cli.StudyConfig(study="ibim3d", h0=0.1, count=3, eps=0.3)
    with pytest.raises(cli.CliError, match="reach"):
        cli.run_ibim3d(cfg)


@pytest.mark.usefixtures("table02", "table11")
def test_ibim3d_run_raises_no_warning():
    # the probe's third-derivative spread is data (SurfaceProbe.f3_spread),
    # not a warning: a study runs clean with every warning an error
    cfg = cli.StudyConfig(study="ibim3d", h0=0.08, count=3, n_targets=2,
                          kernels=("SL",), seed=11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = cli.run_ibim3d(cfg)
    assert len(res["rows"]) == 9


@pytest.mark.usefixtures("table02", "table11")
def test_ibim3d_smoke_rows_and_mean(tmp_path):
    out = tmp_path / "i.csv"
    rc = run_cli("ibim3d", "run", "--h0", "0.08", "--count", "3",
                 "--targets", "2", "--kernel", "SL", "--seed", "11",
                 "--out", str(out))
    assert rc == 0
    text = out.read_bytes().decode()
    lines = text.split("\r\n")
    meta = {ln.split(":")[0][2:].strip() for ln in lines if ln.startswith("# ")}
    assert {"seed", "reference_h", "target_000", "target_001"} <= meta
    body = "\n".join(ln for ln in lines if ln and not ln.startswith("# "))
    rows = list(csv.DictReader(io.StringIO(body)))
    # 2 targets x 3 levels + 3 mean rows
    assert len(rows) == 9
    mean_rows = [r for r in rows if r["target"] == "mean"]
    assert len(mean_rows) == 3
    assert all(float(r["error"]) > 0 for r in rows)
    payload = json.loads((tmp_path / "i.json").read_text())
    assert len(payload["targets"]) == 2
    assert payload["summary"][0]["kernel"] == "SL"


@pytest.mark.usefixtures("table02", "table11")
def test_ibim3d_determinism(tmp_path):
    # with and without the uncorrected baseline rows; reruns are
    # byte-identical, and the baseline adds its own mean rows
    for extra in ((), ("--baseline",)):
        args = ("ibim3d", "run", "--h0", "0.09", "--count", "3", "--targets",
                "1", "--kernel", "DL", "--seed", "4", *extra)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert ((tmp_path / "a.json").read_bytes()
                == (tmp_path / "b.json").read_bytes())
        body = "\n".join(ln for ln in a.read_bytes().decode().split("\r\n")
                         if ln and not ln.startswith("# "))
        mean = [r["kernel"] for r in csv.DictReader(io.StringIO(body))
                if r["target"] == "mean"]
        assert mean == ["DL"] * 3 + ["DL:baseline"] * 3 * len(extra)


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def run_fresh(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports the package this test imported,
    installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ctquad.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def test_console_entry_point_runs():
    proc = run_fresh("-m", "ctquad.cli", "--help")
    assert proc.returncode == 0
    assert "quad2d" in proc.stdout and "ibim3d" in proc.stdout


COLD_START = """
import sys
from ctquad import cli, ibim3d, surfaces, weights
table = weights.load_weight_table(sys.argv[1])
surface = surfaces.tilted_torus()
print(sorted(m for m in ("mpmath", "concurrent.futures", "multiprocessing",
                         "fractions", "hashlib", "argparse", "csv", "shlex")
             if m in sys.modules))
tube = ibim3d.build_tube(surface, 0.075, 0.1)
assert table.grid_n == 4 and tube.n_nodes > 0 and tube.v.max() > 0.0
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("scipy", "mpmath")))
"""


def test_cold_start_loads_no_scipy(tmp_path):
    # set-up (importing the library, loading a table, building the surface)
    # loads only what it uses: mpmath, the pools, exact fractions and the
    # CLI's hashing, parsing, CSV and quoting modules load on first use.
    # Only the exact dual-weight route and the 2D studies' smooth factor
    # import scipy, on first use, and only the weights' moments mpmath:
    # building a tube (delta_eps included) loads neither
    path = str(tmp_path / "tiny.ctwt")
    wt.save_weight_table(wt.WeightTable(
        k=1, p=1, tol=1e-8, n_modes=0, grid_n=4, domain_lo=-0.5,
        stencil_offsets=((0, 0),), bump_r0=wt.DEFAULT_BUMP.r0,
        bump_R=wt.DEFAULT_BUMP.R, data=np.ones((1, 4, 4, 1)),
        m_levels=np.zeros((1, 4, 4), dtype=np.int8)), path)
    proc = run_fresh("-c", COLD_START, path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


def test_cli_error_exit_code():
    rc = run_cli("ibim3d", "run", "--eps", "0.5", "--count", "3",
                 "--targets", "1")
    assert rc == 2
