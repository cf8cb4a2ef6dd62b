"""Golden outputs: the bytes ``optimize``/``simulate``/``baseline`` write on the
bundled fixtures, pinned by sha256 so a refactor of the evaluator or the
optimizer cannot change a single result byte unnoticed.

The digests were recorded from the pure-Python FIFO scan on x86-64
(Python 3.11, numpy 2.4).  A change that alters them on purpose must say so
in CHANGES.md and re-record them.
"""

import hashlib
import json

import pytest

from greensched.cli import main
from greensched.scenario import FIXTURES

GOLDEN = {
    ("intel", "var"): {
        "optimize/best_allocation.json": "6957b42fb69fa88dbcccf7c04ac7bf72c3bed67eaa832bdb1458df8153f2a4d3",
        "optimize/best_modes.txt": "6e2c6921e0b74f07ce55a643946b6b25c458ff560668779856cb4f810ae2f4cb",
        "optimize/convergence.csv": "2069c5cd8ed61ed740fa506cd5328b62b718fc2c8fd5126ac1bd4c26f32489c6",
        "optimize/front.csv": "3b11c41013acb3ffdf6d1c2fcba6ad50c959b3f5f8b931c2345646f7dfbf4bf8",
        "simulate/simulate_jobs.csv": "9d03271da86b1ca6e0a053873b7ea79024565c07b9d645223679b7b26e9ede0e",
        "simulate/simulate_summary.json": "7b02e3882d28f75cc7c97bd51a676d6b29aeba3cc6681e9c8e254c702e71c31a",
        "baseline/baseline_jobs.csv": "eb491fc78d8b5bdb0c90d1fe7b81146f649b434ccb906022e6d1e4f8b9a6aaed",
        "baseline/baseline_summary.json": "06c3d8cfa576223f2e520a9ce5188892e9624e94b8b8c004374a2484eab278e7",
    },
    ("amd", "min"): {
        "optimize/best_allocation.json": "d8896c3115559ab75d9d38c747fa62ffec1740373d9e86e5caa9f6093153d289",
        "optimize/best_modes.txt": "fc2b6f0a5132f5032a4ebe7e56d5bbd6c8ca284e110dcfaba24930ccfad890e7",
        "optimize/convergence.csv": "11296b048b19c30b1e7c8332ee68e917b7f11b178b74d9e34cfff26c7139d192",
        "optimize/front.csv": "dd58c43f427ca73444ec38e2864e9a63a8aa01478198755b71258a4e9269cf90",
        "simulate/simulate_jobs.csv": "a9f95df7a0d5c135c71508286e6d3e56718c66f8b95907cb0a4b01f4f33292c1",
        "simulate/simulate_summary.json": "52ee7ce6dc68b843907e0a0342b766e41c94354b259ccaf74c8c899d99d78591",
        "baseline/baseline_jobs.csv": "7e10cbc22da70dd528d92dd80ba4d43b6eb0a978b654bb8e860ff3fdd1845a81",
        "baseline/baseline_summary.json": "fd2c1738cde8d900e71dc344447ff1dbcf66f2e2b1aa40eb6a61222ddd6f18a6",
    },
}


@pytest.mark.parametrize("fixture,policy", sorted(GOLDEN))
def test_outputs_match_golden_digests(fixture, policy, tmp_path):
    scenario = str(FIXTURES / f"scenario_{fixture}.json")
    common = ["--scenario", scenario, "--seed", "1"]
    assert main(["optimize", *common, "--policy", policy, "--generations", "30",
                 "--out", str(tmp_path / "optimize")]) == 0
    assert main(["simulate", *common,
                 "--allocation", str(tmp_path / "optimize" / "best_allocation.json"),
                 "--out", str(tmp_path / "simulate")]) == 0
    assert main(["baseline", *common, "--out", str(tmp_path / "baseline")]) == 0
    written = {
        str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.glob("*/*"))
    }
    assert written == GOLDEN[fixture, policy]


# Every task at 100 % on host 0, every host at mode 1: the one golden case
# with hard misses and control aborts in the output (the fixture runs above
# have none).  Recorded from the code before lambda's counts were merged
# into one function, so that they guard that merge.
OVERLOADED = {
    "intel": (6, 243_000_214, {
        "simulate_jobs.csv": "f2f8c536860e86eff8c29e6a151365414b7ab7428971444d60671dea89319a65",
        "simulate_summary.json": "a1d3f43c92de2f1bc0417f6570af72a0eabd3ad2c7fc1fccb183a159389b68e4",
    }),
    "amd": (3, 243_000_119, {
        "simulate_jobs.csv": "7485d3b2823e84f26eef26d601ba488a0b004ea4c102f9f71e99289c1b8e988a",
        "simulate_summary.json": "d9c32229149e340d3c114e4b40b3d207385c119cbdb3a0f710efa9bbc2c09e1d",
    }),
}


@pytest.mark.parametrize("fixture", sorted(OVERLOADED))
def test_overloaded_host_matches_golden_digests(fixture, tmp_path):
    n_hosts, lam, digests = OVERLOADED[fixture]
    alloc = tmp_path / "allocation.json"
    alloc.write_text(json.dumps({"dvfs": [1] * n_hosts,
                                 "shares": [[100] + [0] * (n_hosts - 1)] * 9}))
    out = tmp_path / "simulate"
    assert main(["simulate", "--scenario", str(FIXTURES / f"scenario_{fixture}.json"),
                 "--seed", "1", "--allocation", str(alloc), "--out", str(out)]) == 0
    assert f'"lambda": {lam},' in (out / "simulate_summary.json").read_text()
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())} == digests


# ``generate``'s trace.csv per (fixture, phase policy, seed), recorded from the
# per-job scalar draws before each task's jobs were drawn in one block.  Both
# fixtures read the bundled mixed_workload.csv, so their traces are the same.
TRACES = {
    ("amd", "uniform-random", 1): "a2fe777be84f52356b98dae446c283b318c70e2189c7b9edfdc0da08863c3938",
    ("amd", "uniform-random", 2): "e36de73cdc8c2bafa8ea9671a97de9a6ad3b33127758aef07cd371e6072b61eb",
    ("amd", "zero", 1): "61398bb7fb1fb5c509d755bd19d750276c027b6537a1a24c2d3ea5e6d48ca008",
    ("amd", "zero", 2): "7522251d7e09d0778d68d8161e99864372a234fd3a93cb17dfa886ed978c1df5",
    ("intel", "uniform-random", 1): "a2fe777be84f52356b98dae446c283b318c70e2189c7b9edfdc0da08863c3938",
    ("intel", "uniform-random", 2): "e36de73cdc8c2bafa8ea9671a97de9a6ad3b33127758aef07cd371e6072b61eb",
    ("intel", "zero", 1): "61398bb7fb1fb5c509d755bd19d750276c027b6537a1a24c2d3ea5e6d48ca008",
    ("intel", "zero", 2): "7522251d7e09d0778d68d8161e99864372a234fd3a93cb17dfa886ed978c1df5",
}


@pytest.mark.parametrize("fixture,phase,seed", sorted(TRACES))
def test_generated_trace_matches_golden_digest(fixture, phase, seed, tmp_path):
    doc = json.loads((FIXTURES / f"scenario_{fixture}.json").read_text())
    doc["phase_policy"] = phase  # its server and workload files resolve to the fixtures
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "generate"
    assert main(["generate", "--scenario", str(scenario), "--seed", str(seed),
                 "--out", str(out)]) == 0
    assert hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest() == TRACES[fixture, phase, seed]
