"""Scenario text, campaign runners, reports, and the CLI front end."""
import json
from pathlib import Path

import pytest

from ringsim import cli, scenario
from ringsim.config import SimConfig, step_bounds
from ringsim.scenario import (generate_game1, generate_game2, parse_scenario,
                              render_scenario, report_lines, run_bench,
                              run_fuzz, run_game1, run_game1_traced, run_game2,
                              run_game2_traced,
                              write_report)

SCEN_DIR = Path(__file__).resolve().parent.parent / "scenarios"

SAMPLE = render_scenario(
    "t-0", 123, "game1", "/data/\n/data/m.bin 128 64 0",
    {"message": "/data/m.bin", "horizon_periods": 20, "timeout_periods": 3},
    {"default": "honest", "read": "delay:50000"},
    {"victim": {"period": 100_000, "budget": 50_000, "init_shm": 65536}})


def test_parse_render_roundtrip():
    sc = parse_scenario(SAMPLE)
    assert sc["scenario"] == {"name": "t-0", "seed": "123", "kind": "game1"}
    assert sc["game"]["message"] == "/data/m.bin"
    assert sc["adversary"]["read"] == "delay:50000"
    assert sc["tasks"]["victim"]["budget"] == "50000"
    assert "/data/m.bin 128 64 0" in sc["vfs"]
    again = render_scenario("t-0", 123, "game1", sc["vfs"], sc["game"],
                            sc["adversary"], sc["tasks"])
    assert parse_scenario(again) == sc


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_scenario("key = value\n")         # content before any section
    with pytest.raises(ValueError):
        parse_scenario("[task]\n")              # task wants a name
    with pytest.raises(ValueError):
        parse_scenario("[mystery]\n")
    with pytest.raises(ValueError):
        parse_scenario("[game]\nnot-a-pair\n")


EXPECT_TX = {
    "honest": "message",
    "deny-read": "fallback",
    "deny-all": "fallback",
    "delay-short": "message",
    "delay-past-horizon": "fallback",
    "corrupt-read": "fallback",
    "duplicate": "message",
    "flood": "message",
    "kill-at-boot": "fallback",
    "kill-midway": "message",
    "never-wake": "fallback",
    "scribble": "message",
    "mixed": "message",
}


def test_golden_scenarios():
    files = sorted(SCEN_DIR.glob("*.cfg"))
    assert len(files) >= 16
    seen = set()
    for path in files:
        text = path.read_text()
        kind = parse_scenario(text)["scenario"]["kind"]
        if kind == "game2":
            row = run_game2(text)
            assert row["ok"], (path.name, row)
            assert row["ok_subset"] and row["ok_unique"]
            assert row["ok_atomic"] and row["ok_detect"]
        else:
            row = run_game1(text)
            assert row["ok"], (path.name, row)
            name = path.stem
            assert row["tx"] == EXPECT_TX[name], (name, row)
            if name == "corrupt-read":
                assert row["detections"] > 0
        seen.add(path.stem)
    assert set(EXPECT_TX) <= seen


def test_game2_detection_oracle_counts_what_the_enclave_received():
    # row 245 scribbles: the host wrote the payload cleanly, a scribble
    # corrupted it in the arena, and the victim refused it. By the host's
    # own account nothing was tampered with, yet the detection is right, so
    # the oracle counts the payloads the enclave received. (Row 75 of seed
    # 8,000,003 had such a detection while waits burned their budget.)
    texts = generate_game2(8_000_005, 300)
    row, sim_h, _ = scenario._run_game2(texts[245])
    assert row["ok"] and row["ok_detect"], row
    assert sim_h.runtimes["victim"].detections >= 1
    assert not any(e[0] == "read_payload" and not e[5]
                   for e in sim_h.host.events)
    assert [r["name"] for r in map(run_game2, texts) if not r["ok"]] == []


def test_generated_corpus_is_deterministic():
    a = generate_game1(31, 12)
    b = generate_game1(31, 12)
    assert a == b
    names = [parse_scenario(t)["scenario"]["name"] for t in a]
    assert len(set(names)) == 12
    assert generate_game2(4, 6) == generate_game2(4, 6)
    for t in generate_game2(4, 6):
        parse_scenario(t)


def test_report_lines_canonical():
    rows = [{"b": 1, "a": True}, {"z": None}]
    lines = report_lines("demo", 9, rows)
    head = json.loads(lines[0])
    assert head == {"schema": 1, "kind": "demo", "seed": 9, "count": 2}
    assert lines[1] == '{"a":true,"b":1}'       # sorted keys, no spaces
    assert report_lines("demo", 9, rows) == lines


def test_write_report(tmp_path):
    out = tmp_path / "r.jsonl"
    write_report(str(out), "demo", 1, [{"x": 1}])
    assert out.read_text() == "\n".join(report_lines("demo", 1, [{"x": 1}])) + "\n"


def test_traced_run_replays_identically():
    text = (SCEN_DIR / "delay-short.cfg").read_text()
    row1, trace1 = run_game1_traced(text)
    row2, trace2 = run_game1_traced(text)
    assert row1 == row2
    assert trace1 == trace2
    assert trace1 and all(len(l.split(" ", 2)) == 3 for l in trace1)


def test_fuzz_short_run_clean():
    res = run_fuzz(seed=11, iterations=2_000)
    assert res["ok"], res
    assert res["bound_breaches"] == []
    assert res["monitor_violations"] == 0
    assert set(res["maxima"]) <= set(res["bounds"])
    for name, got in res["maxima"].items():
        assert got <= res["bounds"][name]


def test_fuzz_drives_submit_to_its_constant_bound():
    # a submission that publishes loads the head once for the room check and
    # the produce, writes the slot, stores the tail and writes the wake
    # record: four accesses whatever the ring size, and the fuzzer reaches
    # all four
    res = run_fuzz(seed=271828, iterations=5_000)
    assert res["bounds"]["prep_and_submit"] == 4
    assert res["maxima"]["prep_and_submit"] == 4
    assert step_bounds(SimConfig(sq_entries=1024))["prep_and_submit"] == 4


def test_fuzz_keeps_submitting_and_reaps_within_its_bound():
    # a scribbled SQ tail wedges submission for the rest of a Simulation;
    # fresh epochs keep most submissions publishing
    res = run_fuzz(seed=271828, iterations=20_000)
    assert res["ok"], res
    assert 4 * res["published"] >= res["submitted"] > 0
    # the batch drain is measured under scribbling, within a bound made of
    # configuration constants only
    cfg = SimConfig(sq_entries=16, cq_entries=16)
    assert res["bounds"]["reap"] == 2 + cfg.max_events * (cfg.drop_budget + 1)
    assert 0 < res["maxima"]["reap"] <= res["bounds"]["reap"]


def test_bench_pipelining_wins():
    blocking = run_bench("blocking")
    pipelined = run_bench("pipelined")
    assert blocking["bytes"] == pipelined["bytes"]
    assert blocking["elapsed_ns"] / pipelined["elapsed_ns"] >= 1.5


# --- CLI ---

def test_cli_run_with_report_and_trace(tmp_path):
    out = tmp_path / "row.jsonl"
    trace = tmp_path / "trace.txt"
    rc = cli.main(["run", "--scenario", str(SCEN_DIR / "honest.cfg"),
                   "--out", str(out), "--trace", str(trace)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert json.loads(lines[0])["schema"] == 1
    row = json.loads(lines[1])
    assert row["ok"] and row["tx"] == "message"
    assert trace.read_text().splitlines()


def test_cli_run_traces_both_runs_of_a_game2_scenario(tmp_path):
    path = SCEN_DIR / "g2-corrupt.cfg"
    out, trace = tmp_path / "row.jsonl", tmp_path / "trace.txt"
    rc = cli.main(["run", "--scenario", str(path), "--out", str(out),
                   "--trace", str(trace)])
    assert rc == 0
    row, lines = run_game2_traced(path.read_text())
    assert json.loads(out.read_text().splitlines()[1]) == row == \
        run_game2(path.read_text())
    assert trace.read_text() == "\n".join(lines) + "\n"
    hostile, twin = "\n".join(lines).split("\n--- honest twin ---\n")
    for half in (hostile, twin):
        assert half and all(len(l.split(" ")) == 3 for l in half.split("\n"))


def test_cli_campaigns_and_fuzz(tmp_path):
    g1 = tmp_path / "g1.jsonl"
    assert cli.main(["game1", "--count", "4", "--seed", "9",
                     "--out", str(g1)]) == 0
    assert len(g1.read_text().splitlines()) == 5

    g2 = tmp_path / "g2.jsonl"
    assert cli.main(["game2", "--count", "2", "--seed", "5",
                     "--out", str(g2)]) == 0
    rows = [json.loads(l) for l in g2.read_text().splitlines()[1:]]
    assert all(r["ok"] for r in rows)

    fz = tmp_path / "fuzz.jsonl"
    assert cli.main(["fuzz", "--iterations", "500", "--seed", "3",
                     "--out", str(fz)]) == 0
    row = json.loads(fz.read_text().splitlines()[1])
    assert row["ok"] and row["iterations"] == 500


def test_cli_bench(tmp_path):
    out = tmp_path / "bench.jsonl"
    assert cli.main(["bench", "--mode", "pipelined", "--out", str(out)]) == 0
    row = json.loads(out.read_text().splitlines()[1])
    assert row["mode"] == "pipelined" and row["ns_per_byte"] > 0
