"""Golden digests: the exact output bytes of four short reference runs.

c9 in the acceptance suite only compares a run with its own rerun, so a
change that moved the numbers the same way twice would pass it. These
SHA-256 digests pin the bytes of every output file instead; a refactor that
is meant to keep behaviour must keep them.
"""

import hashlib

import pytest

from ttlab.config import bundled_config, with_overrides
from ttlab.engine import run, write_outputs

FILES = ("metrics.json", "lyapunov.csv", "messages.csv", "trace.csv")

# name -> (scenario, overrides, digests in FILES order)
GOLDEN = {
    "team": (
        "formation4",
        dict(law="team", duration=2.0),
        (
            "3f9358b3e198ffa49bcebb5970f3b56adf59599962ad83ae5c1d469548a2adc3",
            "f2ac9ce0106256d26f51209687f43a331de08ad53908661a058ec859c3a6d2eb",
            "2abf5ad854af128c46127b3642ab8c42cbb49764eeb33ea9b76c4f5d425c64ad",
            "878a928e9debf79df7cffc1474ac853ef8c2101dc5c648ebf1812d810c497b0e",
        ),
    ),
    "self": (
        "formation4",
        dict(law="self", duration=2.0),
        (
            "b58c06cad6a010c4c42f2ddf35465286ec3cd9abac9023b0491b42b9620e2b34",
            "e838d373aab1d4f777f2e04442aceb6053d959b06537a28cd8fb567b2bd8aab7",
            "c5dfb3b4e9c274cc547298a21223a57f5a1a84e438fd9d4135a18df712ea8550",
            "4ca82b1cbfb288bd2f6764583d8d432c39d62b3fbd6e3c6181c49d54fd56aff1",
        ),
    ),
    "lambda0": (
        "formation4",
        dict(law="team", tightness=0.0, duration=0.16),
        (
            "87efff32d100dc5727fba5430af182884f1eabebe8c08aee0c39bb75d63e256d",
            "7d3e839b761f1d97db5fc9dfe51833fe652d80a340044ac84d9a1c9874c0bb7a",
            "3f737d2e99ed725d1f0fa889ee4ea3b238d0927f789cab61caffb6131d275724",
            "1d3628793efd9482eabc7ba8e1d9636d3e7d667cc1445aa9404538ed9d4f7446",
        ),
    ),
    "robust": (
        "formation4_robust",
        dict(seed=7, duration=3.0),
        (
            "9e3e219f963f8d3f24fe181103ef1617164b6d1ee9d67b0d0981a5fbfe33f29d",
            "c3405ce5e01a7613f48aa50de090881c7c6ff99181045166941410a53baa2b78",
            "948db0a903d77a2a7e4b1742b54f228908bc64e086e37d4b8f0cedb742b2b3f9",
            "76e0e9bd3e946581d13e49e2961d75286926022759fa97ed2e26c437792f0e07",
        ),
    ),
}


def _digests(name, tmp_path):
    scenario, overrides, _ = GOLDEN[name]
    result = run(with_overrides(bundled_config(scenario), **overrides))
    write_outputs(result, tmp_path)
    return tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in FILES)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name, tmp_path):
    got = _digests(name, tmp_path)
    want = GOLDEN[name][2]
    for f, g, w in zip(FILES, got, want):
        assert g == w, f"{name}: {f} digest changed"
