"""Golden output digests: the CLI's files at a fixed seed, byte for byte.

``GOLDEN`` holds the CLI's files; ``STREAM_GOLDEN`` holds every detected
stream of ``generate_run`` in six cells of ``scenarios.GRID``, which reach
the stream paths no CLI default does: no darks and no jitter, heavy
dead-time pile-up.  A refactor that keeps the order of random draws must
keep every digest below.  A change that alters the draws re-freezes them
and says so in CHANGES.md.  ``manifest.json`` is hashed without its
wall-clock ``runtime_s``.

``python tests/test_golden.py`` prints the current tree's digests in the
layout of ``STREAM_GOLDEN`` and ``GOLDEN``, ready to paste when a declared
draw change re-freezes them.
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
from dataclasses import replace  # noqa: E402

from qdemux import cli  # noqa: E402
from qdemux.config import load_config  # noqa: E402
from qdemux.montecarlo import generate_run  # noqa: E402
from scenarios import GRID  # noqa: E402

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
            "82306ff6751e2374590fa77edd220c027e4913b9caf0356a010c6f29df20c6c4",
        "stats.json":
            "954e2cf83978422e4dc771bd0435db078d27886c11e15cded2084eb43030dcca",
    },
    "car": {
        "car_analytic.csv":
            "05068b7a6b6f9dccdf2fb8d222ed1a64fa4d8c7291eb1331f8c992a7aea211c6",
        "car_mc.csv":
            "316ce58f1df93af01efc697b8bfcd82557382dccd314e219e19330c84023306e",
        "manifest.json":
            "cb35fe89ba94beeb044020b74d75a403c267043cadda3f470756dd25b7581e41",
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
            "cd6f03094538e78f9ee03bff69e0c596c06a20af63a56bd8660f9a0a8b82fac2",
        "manifest.json":
            "ada55eb18aaac55d0461d36205181f29678542fb5c31bcc6c4db85afefb5793a",
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
            "174231ae51103cedca13a29d4aeea0734274e6129d4525e852faf55aabed7d08",
        "visibility_table.txt":
            "1b673fd8028db410e1c064cda980aacc3d8baa005758a57778753c638b473851",
    },
    "fringe": {
        "fringe_S2.csv":
            "c8b3598b2b6fe4d36e9eff72d8e77abff45ab21ffc4e6e2f19fea8b0e4ad8469",
        "fringe_S2_visibility.json":
            "215333664b9b5248defd54f4735b55f25e91cfe65a132a1a6d88b0d587dc600e",
        "manifest.json":
            "38a3838d0bc27b70ab2d6a6fd344a9aab021d0c59a5a0aa83229d9bae704bd51",
    },
    "loss": {
        "loss_report.txt":
            "ddf710fd49bc72ef461faa127e6f8cea00800589a6c6db13dc221bee1d8e15fa",
        "manifest.json":
            "84ccf5711d3e0d596ac9a7b672d97aff9214e9c86d7ef9397f46da52d2007197",
    },
    "loss-json": {
        "loss_report.json":
            "2e6035759cd778cccb6e9ca1ac7b56fe459e3d9c8f7c451078763974c4fa9943",
        "manifest.json":
            "692b6aeb1161fb13d1768277a59098c0d91cc6919770a2915dd2491aa9140bc8",
    },
    "plan": {
        "manifest.json":
            "0c0d8bc8a3bf2ee9826690497df83154c50f545f122b79f0c7ba24f8c42ab7fe",
        "plan.csv":
            "042e8338f54dd64e6b4c495770fa98d1e62b1bb250e3173b08e71167a160409b",
    },
    "qpm": {
        "manifest.json":
            "0145a4a127b70d4abcec4cb745eff5011494e21a0dc4d3211e74ac728e2cb98f",
        "qpm_pump_tuning.csv":
            "1b8fe50005634d0bce4d938db33961aa233bd3492aa8ad76948e704db690f657",
        "qpm_solutions.json":
            "dd9e7859fece910c16d7f9cc9b4fc62ef05bfb925f473cc09a2deff27331f374",
        "qpm_temperature_tuning.csv":
            "b7cab7fe2025610466c8ec26ccbd26edc688c8ee85ccf96a3ae41ef983c63e0e",
    },
    "ring": {
        "manifest.json":
            "9ce63755e4607536b967b4609037d82d696854fc3c764c17280803ce9a4fecf0",
        "ring_transmission.csv":
            "22b6a79024e538638b0760a1f62643f3e8a98a319552005d79816c39d3d1e641",
    },
    "sfg-eff": {
        "manifest.json":
            "95f2f31161b6f9f45d4a467a0e9702024ab0eff13997f845982cbcf3b62b49be",
        "sfg_efficiency.csv":
            "c53e3849b09d3499b239ead296c95cefcfb64d9a25df102281f1691f322b2d77",
    },
}


# grid cell -> digest of its streams, each run for 3 s at seeds 1 and 2
STREAM_GOLDEN = {
    "800uW":
        "d414615b6d92f94ec34a3d5aa8bfdd2bedb116b3d3107f5ebf84f248e50b4661",
    "baseline":
        "3592b85069432bef72789473db2e1bcec13b5c506df9b4988c1ad3569ba5708d",
    "heavy_dead_time":
        "99bf0bc44aee3faf029f45ca38e1846ef2b1da60f23bca797e9028a1c4d19ce8",
    "no_darks_no_jitter":
        "f715163be2774b03801ce715045128d379d26ce4bf191cc735dbbc635675b471",
    "no_umis":
        "30d0bb183554a71bf04b1780edfea7a615538f1dff6b2e8cd5723926a64f85b7",
    "unconverted":
        "b7b29f087f5ac6611d321fffa48fe1831d92cf41c57f895de8b4724933245b86",
}


def stream_digest(name: str) -> str:
    """Digest of every detected stream (label, then int64 times) of one grid cell."""
    h = hashlib.sha256()
    for seed in (1, 2):
        cfg = GRID[name](replace(load_config(None), duration_s=3.0, seed=seed))
        run = generate_run(cfg)
        for stream in (run.signal_stream, *run.idler_streams.values()):
            h.update(stream.label.encode() + b"\0")
            h.update(stream.timestamps_ps.astype("<i8").tobytes())
    return h.hexdigest()


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


@pytest.mark.parametrize("name", sorted(STREAM_GOLDEN))
def test_generate_run_streams_match_golden_digests(name):
    assert stream_digest(name) == STREAM_GOLDEN[name]


if __name__ == "__main__":
    print("STREAM_GOLDEN = {")
    for name in sorted(STREAM_GOLDEN):
        print(f'    "{name}":\n        "{stream_digest(name)}",')
    print("}")
    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for name in sorted(COMMANDS):
            print(f'    "{name}": {{')
            for file, digest in run_digests(name, Path(tmp) / name).items():
                print(f'        "{file}":\n            "{digest}",')
            print("    },")
        print("}")
