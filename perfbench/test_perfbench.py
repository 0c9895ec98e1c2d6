"""Self-tests of the benchmark:  python3 -m pytest perfbench

They cover self time on synthetic spans, the output checker, and one pass
of each workload.  The full passes take about a minute."""

import json
import shutil
import subprocess
import sys
import threading

import pytest

import check
import run
import spans


def _span(i, name, parent, start, end, thread=1, cpu=None, attrs=None):
    return {"id": i, "name": name, "parent": parent, "op": 0, "thread": thread,
            "start": start, "end": end, "cpu_s": end - start if cpu is None else cpu,
            "attrs": attrs or {}}


def test_self_time_subtracts_union_of_children_across_threads():
    s = [
        _span(0, "cli.main", None, 0.0, 10.0),
        _span(1, "pipeline.run_case", 0, 1.0, 4.0, thread=2),
        _span(2, "pipeline.run_case", 0, 3.0, 6.0, thread=3),  # overlaps span 1
        _span(3, "pipeline.run_case", 0, 8.0, 12.0, thread=2),  # clipped at 10
        _span(4, "hypergeom.a_series", 1, 1.5, 2.0, thread=2),  # grandchild of 0
    ]
    selfs = spans.self_times(s)
    assert selfs[0] == pytest.approx(10 - (5 + 2))
    assert selfs[1] == pytest.approx(3 - 0.5)
    assert selfs[2] == pytest.approx(3)
    assert selfs[4] == pytest.approx(0.5)


def test_op_metrics_on_synthetic_spans():
    s = [
        _span(0, "cli.main", None, 0.0, 10.0),
        _span(1, "pipeline.run_case", 0, 0.0, 6.0, thread=2, cpu=4.0,
              attrs={"case": "X4_G24"}),
        _span(2, "pipeline.run_case", 0, 0.0, 8.0, thread=3, cpu=5.0,
              attrs={"case": "X113_G25"}),
        _span(3, "dop.pf_fit", 1, 1.0, 3.0, thread=2, cpu=1.5, attrs={"guard_surplus": 12}),
        _span(4, "linalg.nullspace", 3, 1.0, 1.5, thread=2),
        _span(5, "linalg.nullspace", 3, 2.0, 2.5, thread=2),
        _span(6, "mirror_analysis.mirror_map", 2, 3.0, 7.0, thread=3, cpu=3.0,
              attrs={"order_in": 25}),
        _span(7, "mirror_analysis.extract_instantons", 2, 7.0, 7.5, thread=3,
              attrs={"consumed": 5}),
        _span(8, "mirror_analysis.frobenius", 6, 4.0, 5.0, thread=3),  # stage inside a stage
    ]
    m = spans.op_metrics(s)
    assert set(m) == set(spans.METRICS)
    assert m["cli.main.self_s"] == pytest.approx(2.0)
    assert m["pipeline.run_case.busy_s"] == pytest.approx(9.0)
    assert m["pipeline.run_case.wait_s"] == pytest.approx(5.0)
    assert m["pipeline.run_case.wall_s.X113_G25"] == pytest.approx(8.0)
    # stages: thread CPU time, kernels included, GIL wait and outer stages not
    assert m["stage.X4_G24.pf_fit.self_s"] == pytest.approx(1.5)
    assert m["stage.X113_G25.mirror_map.self_s"] == pytest.approx(3.0)
    assert m["stage.X113_G25.frobenius.self_s"] == 0
    assert m["dop.pf_fit.useful_ratio"] == pytest.approx(0.5)
    assert m["dop.pf_fit.guard_surplus"] == 12
    assert m["mirror_analysis.truncation_used_ratio"] == pytest.approx(5 / 25)
    assert m["qh.scalar_operator.self_s"] == 0


def test_tracer_links_worker_spans_to_the_waiting_span():
    tracer = spans.Tracer(op_id=1)
    work = tracer.span("pipeline.run_case", lambda: None)

    def main():
        t = threading.Thread(target=work)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    tracer.span("cli.main", main)()
    root, child = tracer.spans
    assert root["name"] == "cli.main" and root["parent"] is None
    assert child["parent"] == root["id"] and child["thread"] != root["thread"]


def test_missing_wrapped_name_is_reported_not_zero():
    tracer = spans.Tracer(op_id=1)
    tracer.install([("grasscy.pipeline", "no_such_stage", "dop.pf_fit", None)])
    assert tracer.missing == [["grasscy.pipeline.no_such_stage", "dop.pf_fit"]]
    per_op = [spans.op_metrics([])]
    out = spans.run_metrics(per_op, {"dop.pf_fit", "linalg.nullspace"}, [(1.1, 1.0)])
    assert out["dop.pf_fit.calls"]["value"] is None
    assert out["linalg.nullspace.calls"]["value"] is None
    assert out["hypergeom.a_series.calls"]["value"] == 0
    assert out["trace.overhead_ratio"]["value"] == pytest.approx(0.1)


def test_checker_rejects_one_altered_instanton():
    ref = check.load_reference("verify_all")
    assert check.problems("verify_all", json.dumps(ref), ref) == []
    bad = json.loads(json.dumps(ref))
    bad["cases"][0]["instantons"][-1] += 1
    assert any("differs from the reference" in p
               for p in check.problems("verify_all", json.dumps(bad), ref))


def test_checker_rejects_crosscheck_mismatch_and_garbage():
    ref = check.load_reference("crosscheck")
    bad = json.loads(json.dumps(ref))
    bad["laurent"][2]["ct"] = "0"
    assert len(check.problems("crosscheck", json.dumps(bad), ref)) == 2
    assert check.problems("crosscheck", "not json", ref)


def test_benchmark_json_names_every_metric():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == run.WORKLOADS
    assert [m["name"] for m in bench["per_layer"]] == list(spans.METRICS) + [spans.OVERHEAD]
    assert [m["name"] for m in bench["end_to_end"]] == [
        "wall_s", "setup_s", "peak_rss_mb", "pass_ratio"]


def _run(capsys, *args):
    assert run.main(list(args)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_pass_of_each_workload(capsys, workload):
    out = _run(capsys, "--workload", workload, "--seed", "3", "--seconds", "0")
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == run.SETUP_PROBES_PER_OP + 1
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_one_traced_pass_reports_every_layer(capsys):
    out = _run(capsys, "--workload", "verify_all", "--seed", "3", "--seconds", "0",
                  "--trace", "1")
    assert out["correct"] and out["attempted"] == 2
    metrics = out["metrics"]
    assert set(metrics) == set(spans.METRICS) | {spans.OVERHEAD}
    assert all(m["value"] is not None for m in metrics.values())
    assert metrics["dop.pf_fit.calls"]["value"] == 6
    assert metrics["pipeline.run_case.wall_s.X1111111_G27"]["value"] > 0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify_all",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
