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
            "aa9f962b443c0f931ac9ad13f62564952777f09524b4549c54056b93a45b543b",
        "manifest.json":
            "3d0aa75b7046c6c78628f7ed1d753b00ebb2c03458a2c0356fd400e3cb042d27",
    },
    "demux": {
        "crosstalk_matrix.csv":
            "f914dc22c5fab6675801783a8258770096debeab01998288933477ec2d8e4bf3",
        "fringe_S1_after.csv":
            "94e43e420fcf076b931e4b77ba6ded32d0b62f87d435018da54ca75508aff044",
        "fringe_S1_before.csv":
            "5fca9de8cfaccdea9be9dd245f06f7aeec3c01aa28b50b4de293ae46d0aa3ee7",
        "fringe_S2_after.csv":
            "f9112f52b1a1f2ad3ac765871b26475c7180570106158227390b0a1db42b732c",
        "fringe_S2_before.csv":
            "3acafa0455ffb99934490f417a0339b641b86c94e6c044f4f7bb10f98cdd2f99",
        "fringe_S3_after.csv":
            "793d657700fc265c11cf4a7f22ac2962a9968e34e32a307d8648641dfc704e11",
        "fringe_S3_before.csv":
            "987de7dafcd008d2863bac304cb8a4ec4a4f174eed90397f549e5ea32d8b09e8",
        "manifest.json":
            "c6d05b8770fcd10870aaeaf206942b0740b197222ecc110ce89e1535c09fb364",
        "pump_solutions.json":
            "0076d8eed233ce4c6f15738014dccd800b19770883cb27c30dbaf7186f150b11",
        "tags_S1.csv":
            "59f06f5589758f451f415b64729e44a467bcfac67d24b400c37e6536bb67d082",
        "tags_S1.manifest.json":
            "2c1355c443489fb13b9867885499d5e8c418da60f30549f6198aed4b449de201",
        "tags_S2.csv":
            "11c0a666118bc173c36e87135200c1847bd2909da0989eed6bfbf7d6e408c884",
        "tags_S2.manifest.json":
            "d548a5250135182a04385d9f4cc9a8805e1a0833aa1a1c4009cc114c567d3454",
        "tags_S3.csv":
            "957f2601b1ffa671b250d61e6b9641403ec259ca6057d8f990d1abb8c8042e0d",
        "tags_S3.manifest.json":
            "41bae808bef81e9b725c138d76d1ebfaffc6e4bc2d2a9d548f207bb841ca10e0",
        "visibility_table.json":
            "6729670ffaf6f581aa2735595832f186dd0ec54c79e64a300c2310881186b918",
        "visibility_table.txt":
            "b84a815fc24c02353a20c7176efe25da388a695cf6f24cde9caf84aabd71a284",
    },
    "fringe": {
        "fringe_S2.csv":
            "14b37edf440dbc4658e7dc37c0fb42c73bc1bf2c5e3aff40c58c90da9265e74f",
        "fringe_S2_visibility.json":
            "ad363fd15dd45589c1b8005bf24c19a4196db83d9da51687cdcd8fe5005f1806",
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
