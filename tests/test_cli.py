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

import numpy as np
import pytest

from ctquad import cli
from ctquad import weights as wt


pytestmark = [
    pytest.mark.filterwarnings("ignore::ctquad.weights.TailTruncationWarning"),
    pytest.mark.filterwarnings("ignore::ctquad.geometry.GeometryAsymmetryWarning"),
]


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
        assert max(term.active_modes()) <= 4


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


def test_config_hash_stable_and_sensitive():
    a = cli.StudyConfig(study="quad2d-sk", h0=0.4, p_values=(1, 2))
    b = cli.StudyConfig(study="quad2d-sk", h0=0.4, p_values=(1, 2))
    c = cli.StudyConfig(study="quad2d-sk", h0=0.3, p_values=(1, 2))
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_running_orders_and_observed_order():
    ratio = 2.0
    errors = [2.0 ** -(3 * i) for i in range(6)]  # exact order 3
    orders = cli.running_orders(errors, ratio)
    assert orders[0] is None
    assert all(o == pytest.approx(3.0) for o in orders[1:])
    assert cli.observed_order(errors, ratio) == pytest.approx(3.0)


def test_observed_order_ignores_roundoff_floor():
    ratio = 2.0
    errors = [1e-3, 1.25e-4, 1.5625e-5, 3e-14, 2e-14]  # tail sinks into noise
    est = cli.observed_order(errors, ratio)
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


def test_sk_table_mode_matches_exact_for_tight_tables(table02):
    # (k=0, p=2) table has tol 1e-8: table-interpolated and exact weights
    # give the same observed order and nearly the same values
    kw = dict(study="quad2d-sk", h0=0.3, count=5, k_values=(0,),
              p_values=(2,))
    exact = cli.run_quad2d(cli.StudyConfig(weights_mode="exact", **kw))
    table = cli.run_quad2d(cli.StudyConfig(weights_mode="table", **kw))
    ve = [r["value"] for r in exact["rows"] if r["method"] == "corrected-2"]
    vt = [r["value"] for r in table["rows"] if r["method"] == "corrected-2"]
    assert np.allclose(ve, vt, atol=2e-6)


def test_missing_table_error_names_build_command(tmp_path):
    cfg = cli.StudyConfig(study="quad2d-sk", h0=0.3, count=3, k_values=(0,),
                          p_values=(3,), weights_mode="table")
    with pytest.raises(cli.CliError, match="ctquad weights build --k 0 --p 3"):
        cli.run_quad2d(cfg, cache_dir=str(tmp_path))


def test_version_mismatch_refused(tmp_path, table11):
    stale = dataclasses.replace(table11, version="0.0.1")
    path = tmp_path / wt.table_filename(1, 1)
    wt.save_weight_table(stale, str(path))
    with pytest.raises(cli.CliError, match="--force"):
        cli.load_table_checked(1, 1, cache_dir=str(tmp_path))


def test_other_parameter_table_is_not_served(tmp_path, table11):
    # a cache holding only a (1,1) table built at another tol must not serve
    # it in place of the default one; the error lists it with the build command
    other = dataclasses.replace(table11, tol=1e-6)
    name = wt.table_filename(1, 1, tol=1e-6)
    wt.save_weight_table(other, str(tmp_path / name))
    assert cli.find_table_path(1, 1, cache_dir=str(tmp_path)) is None
    with pytest.raises(cli.CliError) as exc:
        cli.load_table_checked(1, 1, cache_dir=str(tmp_path))
    assert name in str(exc.value)
    assert "ctquad weights build --k 1 --p 1" in str(exc.value)
    served = cli.load_table_checked(1, 1, cache_dir=str(tmp_path), tol=1e-6)
    assert served.tol == 1e-6


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
    # a sweep that returns biased weights must not decide the off-node
    # entries: they are recomputed by the dual-lattice limit, which shares
    # no code with the sweep; only the stencil node (0, 0) of the (k=1, p=1)
    # table is rerun through the sweep
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
    assert all(" dual " in ln and "[ok]" in ln for ln in off_node)
    assert all(" sweep " in ln and "[FAIL]" in ln for ln in on_node)
    assert rc == 1


def test_weights_build_cache_roundtrip(tmp_path, capsys):
    # grid_n=3, n_modes=1 keeps the build to a few seconds
    rc = run_cli("weights", "build", "--k", "0", "--p", "1", "--grid-n", "3",
                 "--n-modes", "1", "--cache-dir", str(tmp_path))
    assert rc == 0
    files = sorted(os.listdir(tmp_path))
    assert any(f.endswith(".ctwt") for f in files)
    assert any(f.endswith(".ctwt.json") for f in files)
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
    args = ("ibim3d", "run", "--h0", "0.09", "--count", "3", "--targets", "1",
            "--kernel", "DL", "--seed", "4")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "ctquad.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "quad2d" in proc.stdout and "ibim3d" in proc.stdout


def test_cli_error_exit_code():
    rc = run_cli("ibim3d", "run", "--eps", "0.5", "--count", "3",
                 "--targets", "1")
    assert rc == 2
