"""Golden output digests: the CLI's files at a fixed seed, byte for byte.

A refactor that keeps the order of random draws must keep every digest
below.  A change that alters the draws re-freezes them and says so in
CHANGES.md.  ``manifest.json`` is hashed without its wall-clock
``runtime_s``.

``python tests/test_golden.py`` prints the current tree's digests in the
layout of ``GOLDEN``, ready to paste when a declared draw change re-freezes
them.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

if __name__ == "__main__":  # run as a script: import this tree's package
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from qdemux import cli  # noqa: E402

SEED = "7"

COMMANDS = {
    "plan": ["plan"],
    "qpm": ["qpm"],
    "car": ["car", "--duration", "2", "--points", "50"],
    "fringe": ["fringe", "--points", "4", "--duration", "2"],
    "demux": ["demux", "--points", "4", "--duration", "2", "--duration-before", "1",
              "--duration-after", "1", "--emit-tags"],
    "ring": ["ring"],
    "sfg-eff": ["sfg-eff"],
    "loss": ["loss"],
    "loss-json": ["loss", "--format", "json"],
    # reads tags_S2.csv of the "demux" command above, run into a sibling directory
    "analyze": ["analyze", "--a", "S2'", "--b", "I2"],
}

GOLDEN = {
    "analyze": {
        "histogram.csv":
            "9f13bd17b2e3e40661f6b68d781d9ffeda443d1a8307e8780918b173dda01889",
        "manifest.json":
            "04890736f6c042a26722c63dc113181ceb158042234da8a9f54b8b41dcdcfd8b",
        "stats.json":
            "954e2cf83978422e4dc771bd0435db078d27886c11e15cded2084eb43030dcca",
    },
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
            "3e10b74a790e616458ca400fe9d03b839a59c2ab1b8294f5094d29b536b23576",
        "fringe_S1_after.csv":
            "0e3720693f6534ac36910c295d3a1735da78c99e9bdda302cd5767f528573ed3",
        "fringe_S1_before.csv":
            "d927dd1a17e74c9e0c6d872b984d42f25ad0d2f99b078daa6fd134003362d88f",
        "fringe_S2_after.csv":
            "bc6c3dcd1a48a64bd91bbf471202c2cc5316bc17f50f57d5ab145d17781c9914",
        "fringe_S2_before.csv":
            "137dd618a65c897df6d2c0c572baf669f0e0840c3c5dcd04ee4c31c0e2d770ff",
        "fringe_S3_after.csv":
            "8dbb5a5c1eb8a9f499fe173dabc399b7b1e417e25599b36d78b6061fa25d6941",
        "fringe_S3_before.csv":
            "37764fcf2dea63e92318a3f51b73e47d3aff08e2d806df734619d1785e434a71",
        "manifest.json":
            "c6d05b8770fcd10870aaeaf206942b0740b197222ecc110ce89e1535c09fb364",
        "pump_solutions.json":
            "0076d8eed233ce4c6f15738014dccd800b19770883cb27c30dbaf7186f150b11",
        "tags_S1.csv":
            "dfd4170cb6856e14d67bb2780e25202b9b74f6e9ed0f3e77202e17742998882a",
        "tags_S1.manifest.json":
            "2c1355c443489fb13b9867885499d5e8c418da60f30549f6198aed4b449de201",
        "tags_S2.csv":
            "7cea3583d0d9eb6cda53d8db7946625b636361b218d978a80a623755fdb799ed",
        "tags_S2.manifest.json":
            "d548a5250135182a04385d9f4cc9a8805e1a0833aa1a1c4009cc114c567d3454",
        "tags_S3.csv":
            "716bd2257287393519cbbc80db45505b824c04ff1b43469d93822b27e4dd1dc0",
        "tags_S3.manifest.json":
            "41bae808bef81e9b725c138d76d1ebfaffc6e4bc2d2a9d548f207bb841ca10e0",
        "visibility_table.json":
            "86f98139941624208de75b97f486eff6d906f69ef2f0a1beab811d87a08854e5",
        "visibility_table.txt":
            "d9e33615b0b8a81e2c67dc2fc07db1b95f8335bca0fe4c170c4ce4d0610e490c",
    },
    "fringe": {
        "fringe_S2.csv":
            "c8b3598b2b6fe4d36e9eff72d8e77abff45ab21ffc4e6e2f19fea8b0e4ad8469",
        "fringe_S2_visibility.json":
            "215333664b9b5248defd54f4735b55f25e91cfe65a132a1a6d88b0d587dc600e",
        "manifest.json":
            "9316db0f022efef2668c2cb925ede47330cffb86f037da10502c2d4e9830fde8",
    },
    "loss": {
        "loss_report.txt":
            "ddf710fd49bc72ef461faa127e6f8cea00800589a6c6db13dc221bee1d8e15fa",
        "manifest.json":
            "be72dcb091f4b4b0274750407728b7a8af40c93a1196cc1ec6a60ffa5fb0168b",
    },
    "loss-json": {
        "loss_report.json":
            "2e6035759cd778cccb6e9ca1ac7b56fe459e3d9c8f7c451078763974c4fa9943",
        "manifest.json":
            "0295292a1809cef9ad2f1d3f5055f2a11bf62bc91db1f93f3d5fa1b725734170",
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
    "ring": {
        "manifest.json":
            "90152d6e3ebd6e9f9acdf4752a92a1514dce86673665404e30a3719a610ac635",
        "ring_transmission.csv":
            "22b6a79024e538638b0760a1f62643f3e8a98a319552005d79816c39d3d1e641",
    },
    "sfg-eff": {
        "manifest.json":
            "ba70cb79e910303c4d07ee3a0af3455e5df6fea89dbc72423820f7f55a825cdf",
        "sfg_efficiency.csv":
            "c53e3849b09d3499b239ead296c95cefcfb64d9a25df102281f1691f322b2d77",
    },
}


def _file_digests(outdir: Path) -> dict[str, str]:
    out = {}
    for path in sorted(p for p in outdir.iterdir() if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("runtime_s")
            data = json.dumps(manifest, sort_keys=True).encode()
        out[path.name] = hashlib.sha256(data).hexdigest()
    return out


def run_digests(name: str, outdir: Path) -> dict[str, str]:
    """Run golden command ``name`` into ``outdir`` and digest what it wrote."""
    argv = COMMANDS[name] + ["--seed", SEED, "--out", str(outdir)]
    if name == "analyze":
        tags = outdir.with_name(outdir.name + "-demux")
        run_digests("demux", tags)
        argv += ["--tags", str(tags / "tags_S2.csv")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return _file_digests(outdir)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_outputs_match_golden_digests(name, tmp_path):
    assert run_digests(name, tmp_path / name) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for name in sorted(COMMANDS):
            print(f'    "{name}": {{')
            for file, digest in run_digests(name, Path(tmp) / name).items():
                print(f'        "{file}":\n            "{digest}",')
            print("    },")
        print("}")
