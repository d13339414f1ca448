import json
from pathlib import Path

import checker
import run
import spans

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_result_metrics_match_the_benchmark_spec():
    case = run.Case(op=None, argv=[], out=Path(), key="", net=None, faults=10, tests=None,
                    times=[0.5, 0.4], check=checker.OpCheck(faults=10, patterns=5, detected=10))
    e2e = run.end_to_end([case], 0.1, 20.0, 2, 0)
    assert [(k, e2e[k][1]) for k in run.E2E_GATED] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert (e2e["op_p50_s"][0], e2e["faults_per_s"][0]) == (0.4, 25.0)
    layer = run.per_layer(spans.Recorder(), 1, 0.0, 0, 0)
    assert {k: unit for k, (_, unit) in layer.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_tail_keeps_ten_samples_beyond():
    samples = [float(k) for k in range(1, 41)]
    assert run.tail(samples) == (30.0, 75.0)
    assert run.tail(samples[:11]) == (1.0, 100.0 / 11)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
