"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests).

Tiny-size smoke runs check that every metric named in BENCHMARK.json is
printed with its unit; corrupted outputs must count as failures.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from fuzzbound import FuzzyRelation  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 12
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    report = {line.split()[0]: line.split()[2] for line in lines[1:-1]}
    for metric in expected:
        assert report[metric["name"]] == metric["unit"]
    assert report["fail_frac"] == "ratio"
    if workload == "cli-session" and not trace:
        assert report["write_p50_ms"] == report["read_p50_ms"] == "ms"


def test_tail_has_ten_samples_beyond_it():
    value, percentile = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and percentile == 75.0


def test_kind_p50_does_not_depend_on_the_mix_of_kinds():
    def sample(command, seconds):
        op = workloads.Op(0, command, "godel", "sim")
        return workloads.Sample(op, seconds, True, False, (0, 0), calibration=0.01)

    fast = [sample("dbsim", s) for s in (0.9, 1.0, 1.1)]
    slow = [sample("dbbisim", s) for s in (3.0, 4.0, 5.0)]
    for mix in (fast + slow, fast * 3 + slow):
        assert run.kind_p50(mix, lambda s: s.seconds) == (pytest.approx(2.0), 2)
    assert run.adjusted(slow[0]) == pytest.approx(3.0 * run.REFERENCE_CALIBRATION_S / 0.01)


def _tiny_context(workload):
    ctx = workloads.Context(order=[0], workdir=BENCH,
                            pairs={0: workloads.make_pair(workload.name, workload.n, 0)})
    ctx.reference = workloads.load_reference(workload.name, "tiny")
    return ctx


def _raise_one_cell(result):
    rows = [list(row) for row in result.relation.degrees]
    x, y = next((x, y) for x, row in enumerate(rows)
                for y, v in enumerate(row) if v < 0.999)
    rows[x][y] += 1e-6
    relation = FuzzyRelation(result.relation.rows, result.relation.cols,
                             tuple(map(tuple, rows)))
    return dataclasses.replace(result, prefix=(relation,))


def _lower_final_norm(result):
    return dataclasses.replace(result, norms=result.norms[:-1] + (result.norms[-1] - 1e-6,))


@pytest.mark.parametrize("corrupt", [_raise_one_cell, _lower_final_norm])
@pytest.mark.parametrize("cls", [workloads.DepthLarge, workloads.FixpointTail])
def test_corrupted_api_result_counts_as_failure(monkeypatch, cls, corrupt):
    workload = cls("tiny")
    ctx = _tiny_context(workload)
    op = workload.cycle(0)[0]
    assert workload.attempt(ctx, op, None, (0, 0)).ok
    real = workloads.API_CALLS[op.command]
    monkeypatch.setitem(workloads.API_CALLS, op.command,
                        lambda *a, **k: corrupt(real(*a, **k)))
    assert not workload.attempt(ctx, op, None, (0, 0)).ok


def test_corrupted_cli_document_is_rejected():
    workload = workloads.CliSession("tiny")
    ctx = _tiny_context(workload)
    op = workload.cycle(0)[1]
    st = workloads.structure(op.structure)
    doc = workloads.api_call(op, st, *ctx.pairs[0]).to_json()
    workloads.require_match(op.key, workloads.doc_fingerprint(doc), ctx.reference[op.key])
    doc["phi_k"]["entries"][0][2] -= 1e-6
    with pytest.raises(workloads.Mismatch):
        workloads.require_match(op.key, workloads.doc_fingerprint(doc),
                                ctx.reference[op.key])


def test_run_counts_corrupted_operations(monkeypatch, capsys):
    real = workloads.API_CALLS["dbsim"]
    monkeypatch.setitem(workloads.API_CALLS, "dbsim",
                        lambda *a, **k: _lower_final_norm(real(*a, **k)))
    assert run.main(["--workload", "depth-large", "--seed", "2", "--seconds", "0",
                     "--size", "tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # Three of each cycle's six calls are dbsim calls.
    assert not result["correct"]
    assert result["failed"] == (result["attempted"] - len(workloads.COMBOS)) // 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "depth-large", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
