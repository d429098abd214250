"""Golden output digests: the CLI's files at a fixed seed, byte for byte.

A refactor that keeps the order of random draws must keep every digest
below.  A change that alters the draws re-freezes them and says so in
CHANGES.md.  ``manifest.json`` is hashed without its wall-clock
``runtime_s``.
"""

import contextlib
import hashlib
import io
import json

import pytest

from qdemux import cli

SEED = "7"

COMMANDS = {
    "plan": ["plan"],
    "qpm": ["qpm"],
    "car": ["car", "--duration", "2", "--points", "50"],
    "fringe": ["fringe", "--points", "4", "--duration", "2"],
    "demux": ["demux", "--points", "4", "--duration", "2", "--duration-before", "1",
              "--duration-after", "1", "--emit-tags"],
}

GOLDEN = {
    "car": {
        "car_analytic.csv":
            "05068b7a6b6f9dccdf2fb8d222ed1a64fa4d8c7291eb1331f8c992a7aea211c6",
        "car_mc.csv":
            "155594ee48ef43c4a6f74d716a7930e248f27ae71bc9a33155f584a4c8eaa731",
        "manifest.json":
            "3d0aa75b7046c6c78628f7ed1d753b00ebb2c03458a2c0356fd400e3cb042d27",
    },
    "demux": {
        "crosstalk_matrix.csv":
            "6c36ce842caf0e564707e72cd99a380846161baa66601b587c5cf72a178ac162",
        "fringe_S1_after.csv":
            "0b097ce47deb2bdf0368ff8509062a2dcefd53f1edfabf01a44c1a17d4cb4474",
        "fringe_S1_before.csv":
            "67b38d553afadcbd8139765a6b021b3ff832b9eba19c5ed6530c091d206604ac",
        "fringe_S2_after.csv":
            "d8207495a88cae6c6ed60a5e18da291836acbd428f25fe2b64780fa8f2f5a1b8",
        "fringe_S2_before.csv":
            "261d1a5092400a46d598414c6474c33a29f8558cc55b77ec9a1e9ec2fa18ac71",
        "fringe_S3_after.csv":
            "bf547bade8c4b48fd73bbf4590bd37f7810d647f987019fa89cb8dbb3abb532d",
        "fringe_S3_before.csv":
            "df86c7f19b43aa345aa19c51fe70ac1e61c7d51e00972cd7eca3292a6f9308df",
        "manifest.json":
            "c6d05b8770fcd10870aaeaf206942b0740b197222ecc110ce89e1535c09fb364",
        "pump_solutions.json":
            "0076d8eed233ce4c6f15738014dccd800b19770883cb27c30dbaf7186f150b11",
        "tags_S1.csv":
            "15b2b580bd10158aa2ecc13ba3eb0937c8048430162f8ea968d2371ac6d91001",
        "tags_S1.manifest.json":
            "2c1355c443489fb13b9867885499d5e8c418da60f30549f6198aed4b449de201",
        "tags_S2.csv":
            "1498e58866d0fc474c4ef97ab34553cc939e3dd70a684e66446b5224658f2e9e",
        "tags_S2.manifest.json":
            "d548a5250135182a04385d9f4cc9a8805e1a0833aa1a1c4009cc114c567d3454",
        "tags_S3.csv":
            "89dcbb29c32b1b6ffd830eac7806ecf24da78415a138dbf645e82744f0c05298",
        "tags_S3.manifest.json":
            "41bae808bef81e9b725c138d76d1ebfaffc6e4bc2d2a9d548f207bb841ca10e0",
        "visibility_table.json":
            "95ef3251750f273a87bf9f63b3796fb7e9cd47171545b4db278e420dadb99b2c",
        "visibility_table.txt":
            "c849d2067a9b59d1a80de69e2107c5f05216ad9a31ec9c81d21e682d0e500762",
    },
    "fringe": {
        "fringe_S2.csv":
            "9216f6977294b781008f5fcc6377433de937bc9fc5dbe300e68a111593f3bca1",
        "fringe_S2_visibility.json":
            "b8c7b991e2b351b64d8aa37c254afa96b271a2083b1117332d4283ef9e41ab01",
        "manifest.json":
            "9316db0f022efef2668c2cb925ede47330cffb86f037da10502c2d4e9830fde8",
    },
    "plan": {
        "manifest.json":
            "9ebcb2c03b574aaa849ac4194f69cc07e737575f20dc4c79f73aaf1a309f7552",
        "plan.csv":
            "042e8338f54dd64e6b4c495770fa98d1e62b1bb250e3173b08e71167a160409b",
    },
    "qpm": {
        "manifest.json":
            "d3c59187c69aa68f728343d451358ae268329d1391d568709607a7639ea4f46b",
        "qpm_pump_tuning.csv":
            "1b8fe50005634d0bce4d938db33961aa233bd3492aa8ad76948e704db690f657",
        "qpm_solutions.json":
            "dd9e7859fece910c16d7f9cc9b4fc62ef05bfb925f473cc09a2deff27331f374",
        "qpm_temperature_tuning.csv":
            "b7cab7fe2025610466c8ec26ccbd26edc688c8ee85ccf96a3ae41ef983c63e0e",
    },
}


def _file_digests(outdir) -> dict[str, str]:
    out = {}
    for path in sorted(p for p in outdir.iterdir() if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("runtime_s")
            data = json.dumps(manifest, sort_keys=True).encode()
        out[path.name] = hashlib.sha256(data).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_outputs_match_golden_digests(name, tmp_path):
    argv = COMMANDS[name] + ["--seed", SEED, "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert _file_digests(tmp_path) == GOLDEN[name]
