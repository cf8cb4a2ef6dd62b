"""Golden outputs: the bytes ``optimize``/``simulate``/``baseline`` write on the
bundled fixtures, pinned by sha256 so a refactor of the evaluator or the
optimizer cannot change a single result byte unnoticed.

The digests were recorded from the pure-Python FIFO scan on x86-64
(Python 3.11, numpy 2.4).  A change that alters them on purpose must say so
in CHANGES.md and re-record them.
"""

import hashlib

import pytest

from greensched.cli import main
from greensched.scenario import FIXTURES

GOLDEN = {
    ("intel", "var"): {
        "optimize/best_allocation.json": "c0f3f304a2f6b4783c7f52766f13db8da4be49d18cbe94465cfa4e42d598a943",
        "optimize/best_modes.txt": "c55efed598179247f84c1262ceb1f116946e5c4355f1683d58ec5636b5cc7835",
        "optimize/convergence.csv": "2832fd60c2d8dde250fac873c1a84cdf6ccb1cfb83cdc7384d2209d6cc2e1574",
        "optimize/front.csv": "9fbbe3a111bd8786e72ae7307960453213e02ae4084e41f9b32f699b432afd9c",
        "simulate/simulate_jobs.csv": "29aed843429111cb4996ca8477cc12fa093a25f1a8387b36c7431810773e771d",
        "simulate/simulate_summary.json": "94e18657703777418cbe01ef0a805957b18107e521cf2f28e3715cb969a00491",
        "baseline/baseline_jobs.csv": "eb491fc78d8b5bdb0c90d1fe7b81146f649b434ccb906022e6d1e4f8b9a6aaed",
        "baseline/baseline_summary.json": "1f6c38b562a4ba8a92f9414d866773caea7207d3f390962d907ae338124fe67a",
    },
    ("amd", "min"): {
        "optimize/best_allocation.json": "406dd515a22855db42b859cbdd1de30df9eb05359843f5f43ea77e16422165e3",
        "optimize/best_modes.txt": "fc2b6f0a5132f5032a4ebe7e56d5bbd6c8ca284e110dcfaba24930ccfad890e7",
        "optimize/convergence.csv": "e19715ae7c8b48c52f756ae95baf3d7541f4d5b4fccec42d50627dc282b286ee",
        "optimize/front.csv": "66b273d40e1319175e2a60d8098e9d3e6784b3f1d6f5ae211985a1bde36ae845",
        "simulate/simulate_jobs.csv": "9021320e1bc537d096cac538fb1e3e955a58ec1b640b7e98a75400d2973ea708",
        "simulate/simulate_summary.json": "29b2b1254cbc63d7f1a2a432828ac7b276d3c8d50c2ddf8a5e21fd88078770e8",
        "baseline/baseline_jobs.csv": "7e10cbc22da70dd528d92dd80ba4d43b6eb0a978b654bb8e860ff3fdd1845a81",
        "baseline/baseline_summary.json": "033132b9957b625dc71d66a81f63d2b7b029781060d98431cdb4bab178d2d13b",
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
