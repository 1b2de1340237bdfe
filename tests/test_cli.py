import csv
import io
import json
import shlex
from pathlib import Path

import pytest

from charzero import cli

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


def test_zeros_bad_spacing_exits_2(capsys):
    for spacing in ("0", "-0.05", "nan"):
        argv = ["zeros", "--q", "4", "--conrey", "3", "--rect", "0,1,0,20"]
        code, out, err = run(capsys, argv + ["--spacing", spacing])
        assert code == 2, spacing
        assert out == ""
        assert err.startswith("error: spacing") and err.count("\n") == 1, err


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
