"""The benchmark's own tests, on tiny inputs (``--smoke``).

    python3 -m pytest perfbench/check_smoke.py

The file name keeps it out of the library's test collection: the benchmark
is not part of tier 1.  The tests check that every metric BENCHMARK.json
names is emitted, that every correctness check fires on a corrupted
output, that call times are scaled to the reference speed, and that the
benchmark refuses to run without the library sources.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402
import workloads  # noqa: E402

cz = run.import_charzero()


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_metric_is_emitted(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_the_seed_alone_fixes_the_inputs():
    def inputs(wl):
        return repr([label for label, _ in wl.calls] + [
            vars(wl).get(k) for k in ("chars", "phi", "configs", "functions")
        ])

    for cls in workloads.WORKLOADS.values():
        assert inputs(cls(cz, 5, False)) == inputs(cls(cz, 5, False))
        assert len({inputs(cls(cz, seed, False)) for seed in range(1, 9)}) > 1, cls.name


def outputs(name):
    wl = workloads.WORKLOADS[name](cz, 3, True)
    outs = {label: call() for label, call in wl.calls}
    for label, out in outs.items():
        assert wl.check(label, out) == 0, label
    return wl, outs


def test_zero_sweep_checks_fire():
    wl, outs = outputs("zero-sweep")
    label, recs = next((k, v) for k, v in outs.items() if k != "4.3")
    off_line = [dataclasses.replace(recs[0], beta=0.5 + 1e-4)] + recs[1:]
    assert wl.check(label, off_line) == 1
    assert wl.check(label, []) == 1
    assert wl.check("4.3", outs["4.3"][1:]) == 1


def test_corollary_audit_checks_fire():
    wl, outs = outputs("corollary-audit")
    label = next(k for k in outs if k.startswith("fixed"))
    rep = outs[label]
    row = rep.rows[0]
    for bad in (
        dataclasses.replace(row, zero_count=1),
        dataclasses.replace(row, near_one_has_zero=not row.near_one_has_zero),
    ):
        assert wl.check(label, dataclasses.replace(rep, rows=[bad] + rep.rows[1:])) == 1
    assert wl.check(label, dataclasses.replace(rep, rows=rep.rows[1:])) == 1


def test_plancherel_checks_fire():
    wl, outs = outputs("plancherel-grid")
    for label, res in outs.items():
        assert wl.check(label, [dataclasses.replace(res[0], residual=1e-3)] + res[1:]) == 1
        assert wl.check(label, res[1:]) == 1


def test_halasz_checks_fire():
    wl, outs = outputs("halasz-search")
    for label, rep in outs.items():
        moved = dataclasses.replace(rep.data, phi=rep.data.phi + 0.5)
        assert wl.check(label, dataclasses.replace(rep, data=moved)) == 1
        wrong_m = dataclasses.replace(rep.data, M=rep.data.M * (1 + 1e-6) + 1e-9)
        assert wl.check(label, dataclasses.replace(rep, data=wrong_m)) == 1


def test_a_raising_call_fails_all_its_items():
    wl = workloads.WORKLOADS["plancherel-grid"](cz, 3, True)
    tally = run.Tally(wl)
    label = wl.calls[0][0]
    tally.add(label, RuntimeError("boom"))
    assert tally.failed == tally.attempted == wl.items(label) > 1


def test_times_are_scaled_to_the_reference_speed():
    ref = run.PROBE_REF_S
    # scaled: a -> 1.0, 1.5, 2.0, 9.0; b -> 1.0, 3.0 (too few to trim)
    times = {
        "a": [(1.0, ref), (3.0, 2 * ref), (9.0, ref), (4.0, 2 * ref)],
        "b": [(0.5, 0.5 * ref), (3.0, ref)],
    }
    assert run.norm_wall(times) == pytest.approx(1.75 + 2.0)
    assert run.raw_wall(times) == pytest.approx(1.0 + 0.5)
    assert run.probe_s() > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
