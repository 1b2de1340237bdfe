import csv
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from charzero import cli, zeros

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_chars_json(capsys):
    code, out, err = run(capsys, ["--out", "json", "chars", "--q", "8", "--primitive-only"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["count"] == 2
    assert {c["conrey"] for c in payload["characters"]} == {3, 5}
    parities = {c["conrey"]: c["even"] for c in payload["characters"]}
    assert parities == {3: False, 5: True}


def test_chars_csv(capsys):
    code, out, _ = run(capsys, ["--out", "csv", "chars", "--q", "12"])
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 0
    assert len(rows) == 4
    assert sum(r["primitive"] == "True" for r in rows) == 1


def test_sum_text(capsys):
    code, out, _ = run(capsys, ["sum", "--q", "5", "--conrey", "4", "--x", "3"])
    assert code == 0
    assert "re = -1.0" in out


def test_distance_value(capsys):
    code, out, _ = run(
        capsys,
        ["--out", "json", "distance", "--f", "one", "--g", "char:5.4", "--x", "10"],
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["distance_sq"] == pytest.approx(2.1523809523809523, abs=1e-15)


def test_lvalue_catalan(capsys):
    code, out, _ = run(
        capsys, ["--out", "json", "lvalue", "--q", "4", "--conrey", "3", "--re", "2"]
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["re"] == pytest.approx(0.9159655941772190, abs=1e-12)
    assert payload["err_bound"] < 1e-9
    assert payload["s_re"] == 2.0 and payload["s_im"] == 0.0


def test_zeros_csv(capsys):
    code, out, _ = run(
        capsys,
        [
            "--out",
            "csv",
            "zeros",
            "--q",
            "4",
            "--conrey",
            "3",
            "--rect",
            "0,1,0,12",
        ],
    )
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 0
    assert len(rows) == 2
    assert float(rows[0]["beta"]) == pytest.approx(0.5, abs=1e-6)
    assert float(rows[0]["gamma"]) == pytest.approx(6.0209489047, abs=1e-6)


def test_plancherel_residual(capsys):
    code, out, _ = run(
        capsys,
        [
            "--out",
            "json",
            "plancherel",
            "--q",
            "4",
            "--conrey",
            "3",
            "--lambda",
            "0.25",
            "--T",
            "1",
        ],
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["residual"] < 1e-9


def test_hzeros_csv(capsys):
    code, out, _ = run(capsys, ["--out", "csv", "hzeros", "--count", "3"])
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 0
    assert [r["k"] for r in rows] == ["1", "2", "3"]
    assert float(rows[0]["im"]) == pytest.approx(7.930227356935015, abs=1e-8)
    assert all(float(r["residual"]) < 1e-10 for r in rows)
    assert all(float(r["gap"]) < 1.0 for r in rows)


def test_constants_payload(capsys):
    code, out, _ = run(capsys, ["--out", "json", "constants"])
    payload = json.loads(out)
    assert code == 0
    assert payload["delta0"] == pytest.approx(0.1715004931415361, abs=1e-12)
    assert payload["delta1"] == pytest.approx(-0.6569990137169278, abs=1e-12)


def test_bound_modes(capsys):
    code, out, _ = run(
        capsys, ["--out", "json", "bound", "--mode", "mean-upper", "--alpha", "1.0"]
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.6569990137169278, abs=1e-12)
    code, out, _ = run(
        capsys,
        ["--out", "json", "bound", "--mode", "nonresidue-lower", "--u", "1.0"],
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.1715004931415361, abs=1e-12)


def test_census_cli(capsys):
    code, out, _ = run(capsys, ["--out", "json", "census", "--q", "10007", "--u", "1"])
    payload = json.loads(out)
    assert code == 0
    assert payload["count"] == 3
    assert payload["bound_ok"] is True


def test_audit_corollary_deterministic(capsys):
    argv = [
        "--out",
        "json",
        "audit-corollary",
        "--q-min",
        "3",
        "--q-max",
        "5",
        "--eps",
        "0.9",
    ]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["constants"]["abs_c"] == 1.0


def test_config_file_overrides(capsys, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("abs_c = 2.0 # comment\n")
    code, out, _ = run(
        capsys,
        [
            "--config",
            str(cfg),
            "--out",
            "json",
            "audit-corollary",
            "--q-min",
            "3",
            "--q-max",
            "3",
            "--eps",
            "0.9",
        ],
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["constants"]["abs_c"] == 2.0


def test_unknown_config_key_exits_2(capsys, tmp_path):
    # all but "nope" were once accepted and echoed, yet read by no computation
    keys = [
        "nope",
        "lemma31_C",
        "zero_density_c",
        "halasz_ratio_cap",
        "hal3_slack",
        "mangoldt_nmax",
        "seed",
    ]
    for key in keys:
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = 1\n")
        code, out, err = run(capsys, ["--config", str(cfg), "constants"])
        assert code == 2, key
        assert err.startswith("error:")
        assert key in err


def test_bad_config_value_exits_2(capsys, tmp_path):
    for value in ("nan", "foo", "0", "-5"):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"abs_c = {value}\n")
        code, out, err = run(capsys, ["--config", str(cfg), "audit-corollary",
                                      "--q-min", "3", "--q-max", "3", "--eps", "0.9"])
        assert code == 2, value
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "abs_c" in err and value in err


def test_non_finite_value_exits_2(capsys):
    cases = [
        (["distance", "--f", "one", "--g", "char:5.4", "--x", "inf"], "finite x"),
        (["halasz", "--f", "one", "--x", "inf"], "finite x"),
        (["product-search", "--f1", "one", "--x1", "inf", "--eta", "0.5", "--k", "2"],
         "finite x"),
        (["census", "--q", "101", "--u", "inf"], "u must lie"),
        (["audit-corollary", "--q-min", "3", "--q-max", "5", "--eps", "inf"], "eps"),
        (["product-search", "--f1", "one", "--x1", "2000", "--eta", "nan", "--k", "2"],
         "eta"),
        (["product-search", "--f1", "one", "--x1", "2000", "--f2", "one", "--x2", "2000",
          "--eta", "nan"], "eta"),
        (["halasz", "--f", "ntoi:nan", "--x", "1000"], "finite alpha"),
        *(
            (["audit-corollary", "--q-min", "3", "--q-max", "5", "--eps", "0.9",
              "--T", T, "--selector", selector], "T must be")
            for T in ("nan", "inf", "-1")
            for selector in ("fixed-window", "twisted-window")
        ),
        *(
            (["plancherel", "--q", "4", "--conrey", "3", "--lambda", "0.25", *argv], reason)
            for argv, reason in (
                (["--T", "1", "--phi", "inf"], "leaves the window"),
                (["--T", "1", "--phi", "nan"], "leaves the window"),
                (["--T", "1", "--phi", "1e300"], "leaves the window"),
                (["--T", "1", "--phi", "45"], "leaves the window"),
                (["--T", "1e-5"], "T must lie"),
                (["--T", "nan"], "T must lie"),
                (["--T", "inf"], "T must lie"),
            )
        ),
        *(
            (["--out", "json", "sum", "--q", "5", "--conrey", "4", "--x", x, "--phi", phi],
             reason)
            for x, phi, reason in (
                ("100", "nan", "phi = nan"),
                ("100", "inf", "phi = inf"),
                ("nan", "0", "x = nan"),
            )
        ),
        *(
            (["audit-disk", "--q", "4", "--conrey", "3", "--x", x, "--L", L], reason)
            for x, L, reason in (
                ("nan", "1", "x = nan"),
                ("10", "nan", "L = nan"),
                ("10", "inf", "L = inf"),
            )
        ),
    ]
    for argv, reason in cases:
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error:") and err.count("\n") == 1, argv
        assert reason in err, (argv, err)

def test_seed_flag_exits_2(capsys):
    for argv in (["--seed", "7", "constants"], ["--threads", "4", "constants"]):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == "" and "error:" in err


def test_readme_cli_examples_run(capsys):
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("charzero ")]
    assert len(lines) == 14
    for line in lines:
        code, _, err = run(capsys, shlex.split(line)[1:])
        assert code == 0, (line, err)


def test_domain_error_exits_2(capsys):
    code, _, err = run(
        capsys, ["lvalue", "--q", "4", "--conrey", "3", "--re", "9"]
    )
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(capsys, ["audit-disk", "--q", "4", "--conrey", "3", "--x", "10", "--L", "360"])
    assert code == 2
    assert err.startswith("error:")
    # the erfc sum would need 7.6e8 terms, past the cap: rejected before any sum
    argv = ["plancherel", "--q", "4", "--conrey", "3", "--lambda", "0.25", "--T", "0.02"]
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_zeros_bad_spacing_exits_2(capsys):
    for spacing in ("0", "-0.05", "nan"):
        argv = ["zeros", "--q", "4", "--conrey", "3", "--rect", "0,1,0,20"]
        code, out, err = run(capsys, argv + ["--spacing", spacing])
        assert code == 2, spacing
        assert out == ""
        assert err.startswith("error: spacing") and err.count("\n") == 1, err


def test_zeros_count_mismatch_exits_2(capsys, monkeypatch):
    # a nonzero count in a box off the critical line cannot be located
    monkeypatch.setattr(zeros, "count_zeros_family", lambda chars, rect: [1] * len(chars))
    argv = ["zeros", "--q", "4", "--conrey", "3", "--rect", "0.75,1,-0.25,0.25"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: winding count is 1") and err.count("\n") == 1, err


def test_product_search_cli(capsys):
    code, out, _ = run(
        capsys,
        [
            "--out",
            "json",
            "product-search",
            "--f1",
            "ntoi:0.5",
            "--f2",
            "ntoi:-0.5",
            "--x1",
            "2000",
            "--x2",
            "2000",
            "--eta",
            "0.5",
        ],
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["hypothesis_ok"] is True
    assert payload["mean_ok"] is True


def test_power_search_cli(capsys):
    code, out, _ = run(
        capsys,
        [
            "--out",
            "json",
            "product-search",
            "--f1",
            "one",
            "--x1",
            "2000",
            "--eta",
            "0.5",
            "--k",
            "2",
        ],
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["k"] == 2 and payload["mean_ok"] is True


def test_halasz_cli(capsys):
    code, out, _ = run(
        capsys, ["--out", "json", "halasz", "--f", "one", "--x", "10000"]
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["ratio"] == pytest.approx(1.0, abs=1e-3)
    assert payload["phi"] == 0.0


def test_halasz_takes_only_f(capsys):
    code, out, err = run(capsys, ["halasz", "--q", "19", "--conrey", "18", "--x", "10000"])
    assert code == 2
    assert out == "" and err.count("error:") == 1, err


def test_bound_rejects_other_mode_flag(capsys):
    for argv in (
        ["bound", "--mode", "mean-upper", "--u", "0.8"],
        ["bound", "--mode", "mean-upper", "--alpha", "1.0", "--u", "0.8"],
        ["bound", "--mode", "nonresidue-lower", "--alpha", "1.0"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err


_LAZY_SCIPY = """
import contextlib, importlib, io, pkgutil, sys
import charzero
from charzero import cli, dirichlet, lfunction
for m in pkgutil.iter_modules(charzero.__path__):
    importlib.import_module("charzero." + m.name)
for argv in (["halasz", "--f", "ntoi:1", "--x", "10000"],
             ["chars", "--q", "12"],
             ["census", "--q", "101", "--u", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
assert "scipy.special" not in sys.modules, "loaded without a special function"
lfunction.family_xi([dirichlet.character(5, 2)], [0.5 + 14j])
assert "scipy.special" in sys.modules, "xi ran without loggamma"
"""


def test_multiplicative_side_never_imports_scipy_special():
    # a fresh interpreter: the test session itself has imported scipy.special
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_SCIPY], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
