"""Golden digests: the exact output bytes of short reference runs.

c9 in the acceptance suite only compares a run with its own rerun, so a
change that moved the numbers the same way twice would pass it. These
SHA-256 digests pin the bytes of every output file instead; a refactor that
is meant to keep behaviour must keep them.

The four GOLDEN runs are the reference workloads. The PATHS runs reach code
those four never execute: the applied control with `safe_turn` off, the
dynamic promise rule with the adaptive dwell (whose radius and dwell are
computed from the planning gap), a ball promise's disk past its expiry,
a warning about a view issued at its own instant, an agent with no
neighbour, the `run_compare` table and the `sweep_lambda` table.
"""

import hashlib
from dataclasses import replace

import pytest

from ttlab.config import bundled_config, validate_config, with_overrides
from ttlab.engine import (
    _compare_cfg,
    run,
    run_compare,
    sweep_lambda,
    write_compare_csv,
    write_outputs,
    write_sweep_csv,
)

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


def _zero_delay_robust():
    """formation4_robust, seed 3, on a lossy noisy channel without delay."""
    cfg = with_overrides(bundled_config("formation4_robust"), seed=3, duration=2.0)
    cfg = replace(cfg, network=replace(cfg.network, max_delay=0.0))
    validate_config(cfg)
    return cfg


def _isolated_agent():
    """formation4's first three agents under the team law, with only the
    edge 0-1: agent 2 has no neighbour, so its goal point is its position."""
    cfg = with_overrides(bundled_config("formation4"), law="team", duration=0.5)
    cfg = replace(
        cfg,
        n_agents=3,
        edges=((0, 1),),
        distances=((0, 1, 2.0),),
        initial_states=cfg.initial_states[:3],
    )
    validate_config(cfg)
    return cfg


# name -> (config builder, digests in FILES order)
PATHS = {
    "safe-turn-off": (
        lambda: replace(with_overrides(bundled_config("formation4"), duration=2.0), safe_turn=False),
        (
            "cee14325e051327676f00321db59afd4f45721a257cb1b69aaf5de28218ee133",
            "36765ed25cd0f4e61e0d1d598cd1612698d2181da641245782f8896827361c9c",
            "c61f1227ebcbf703ef16d53fec484dd3172fec63ea1755768c2df2af02793350",
            "f069ed694a5ce8c3d34a69612bbaf5b40b6f58a86d594ca3efbee784e37d468d",
        ),
    ),
    "dynamic-adaptive": (
        lambda: _compare_cfg(with_overrides(bundled_config("formation4"), duration=2.0), "apad"),
        (
            "1c28fedb41fa9cab44b7c6555b551a23e7a000b7226f1ff74d98a139ee895abc",
            "fe044cd4fb6c5ce13ba94d88f8ee17ffcea74390faf357470fd9d5dca30e06de",
            "baee77f928071ffd8ccb9d4ce9ab5ca79fc0e91777ded4a0a119b85e4ad0e7e2",
            "b8c29653bbe750a1e900e1e3d4be6da1018041639415f5c170871a7867e74951",
        ),
    ),
    # Expiration 0.2 s against a self dwell of 0.3 s: views outlive their
    # promises' expiry whenever the reissue is dropped.
    "robust-past-expiry": (
        lambda: replace(
            with_overrides(bundled_config("formation4_robust"), seed=7, duration=3.0),
            expiration=0.2,
        ),
        (
            "1b69265bbacad26f757a5b60f31240db0d27adc2d1e6f8a2fae08c5cc630f3d2",
            "dfea88975964d3f28191b26891f650bc197feb61a2a6dcda4983c2280a86bf77",
            "8f1d853ea968272c4a0c57e7a13c2aecce33b870ea20a0787e1fba62423ff3b0",
            "a8a41b6afe2a007d8aa9855c80f44a3d640818bdd6a8269cd999d100352b3713",
        ),
    ),
    # Its warning at 1.705 s finds a view issued at that same instant.
    "robust-zero-delay": (
        _zero_delay_robust,
        (
            "2fdc7b69b3c65b9230a181c13744e9d9e22baa6ed913359a2c99f168b6cd2da5",
            "84f63f791d140075d68385d5c6c82bfecd7c410b7ca55c795e66958089430536",
            "5a4e322ea64430f1ab54e674c8734c74a868b2353f92abc41dd4cb7bac40b877",
            "27911cdd8a8986f0829d1603277c1785fafe27a30c7e1dfb2c66c63da0931b87",
        ),
    ),
    "isolated-agent": (
        _isolated_agent,
        (
            "64f033917a6afb1d434ca6446ad0e0ee719c8a3ad5aabc51569260c7518f0ab0",
            "66213fff1c7a744ced878a13e0ab58ea512724deaf2744654db99963b65ddb5f",
            "cc8c6077beb0342e6de93df4bc400ed7e4c8db97332e52cfd8ce812865a2c4d4",
            "bf7e204dc3f003993306534c8548d0689d3aeab3101d844e256129002e7a3c63",
        ),
    ),
}

def golden_config(name):
    """The config of the GOLDEN or PATHS run `name`."""
    if name in GOLDEN:
        scenario, overrides, _ = GOLDEN[name]
        return with_overrides(bundled_config(scenario), **overrides)
    return PATHS[name][0]()


COMPARE_DIGEST = "47a8a8fd158cf3294a5e024c7413615f035d279cbbcb49aeacda28bca58dc4b2"
SWEEP_DIGEST = "4ba48341fc245bb088cada87be7e520946c66851f00ec1f2d2fc95da01235630"


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digests(cfg, tmp_path):
    write_outputs(run(cfg), tmp_path)
    return tuple(_sha(tmp_path / f) for f in FILES)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name, tmp_path):
    scenario, overrides, want = GOLDEN[name]
    got = _digests(with_overrides(bundled_config(scenario), **overrides), tmp_path)
    for f, g, w in zip(FILES, got, want):
        assert g == w, f"{name}: {f} digest changed"


@pytest.mark.parametrize("name", sorted(PATHS))
def test_path_digests(name, tmp_path):
    build, want = PATHS[name]
    got = _digests(build(), tmp_path)
    for f, g, w in zip(FILES, got, want):
        assert g == w, f"{name}: {f} digest changed"


def test_compare_table_digest(tmp_path):
    rows = run_compare(with_overrides(bundled_config("formation4"), duration=1.0), sample_dt=0.1)
    write_compare_csv(rows, tmp_path / "compare.csv")
    assert _sha(tmp_path / "compare.csv") == COMPARE_DIGEST


def test_sweep_table_digest(tmp_path):
    rows = sweep_lambda(with_overrides(bundled_config("formation4"), duration=1.0), [0.1, 0.5, 1.0])
    write_sweep_csv(rows, tmp_path / "sweep.csv")
    assert _sha(tmp_path / "sweep.csv") == SWEEP_DIGEST
