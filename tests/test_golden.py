"""Golden stdout: the sha256 of `xmcurves gen` output for every generator
kind at fixed seeds, of a few `experiment` tables, and of the lemma and
exact-coloring subcommands on fixed generated families.  The `gen` and
`experiment` hashes were taken from the Fraction-arithmetic geometry
kernel, before the integer kernel and incremental redraw checks replaced
it; the lemma hashes were taken from the exact-coloring engine that
solved every alpha-sequence prefix and every repeated subgraph afresh.
Any change to a generated family, a table row, a breakpoint, a chromatic
number, a coloring or a gap subgraph changes a hash."""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from xmcurves.cli import main
from xmcurves.generators import GEN_KINDS

GEN_GOLDEN = [
    ("gen --kind rays --n 12 --seed 0",
     "0020b6c4b7ce46e2b41430382cb95d7e1b49e00e0425ea2e129026473096a83e"),
    ("gen --kind rays --n 12 --seed 1",
     "f16bc23616e3165bcb090010d295523e97d7f7f00625a84e4f63ed81054c2094"),
    ("gen --kind rays --n 12 --seed 2",
     "5d0c44baa8ca14c84001114c94d72709c3aef169e89b1b6f9e14784dd17fbc8a"),
    ("gen --kind unitsegments --n 12 --seed 0",
     "8b65641df6139b13e229d7f017c2accee123f90818a09a675445d50026136531"),
    ("gen --kind unitsegments --n 12 --seed 1",
     "e8bdd2b44509e09ff29b9aa8c734a0385d3dd4a9f6d09135fc1dd9d0f4c9ca5a"),
    ("gen --kind unitsegments --n 12 --seed 2",
     "7dcb10c915036f63e1f81d68340bdd8445f5d3f06f4ab2525bf5fffa1b8721b3"),
    ("gen --kind rightflagpolylines --n 12 --segments 3 --seed 0",
     "5576b5ddafaf6b573d650a2bf3fc31cc160a051b90097cd9ac84ec7acc940629"),
    ("gen --kind rightflagpolylines --n 12 --segments 3 --seed 1",
     "1817eae46361281039103b2a2c0846b8935df0c7f298759197e815390beb72f1"),
    ("gen --kind rightflagpolylines --n 12 --segments 3 --seed 2",
     "2132cb464f48c6e91e9c9556f164cea4630dda01fd37d68e5db46a061aa0d96e"),
    ("gen --kind rightflagpolylines --n 30 --segments 2 --seed 4",
     "4acc97def2f4cbfc637b313b6334719fc0b90bc6e609f2aa7407722f4036be88"),
    ("gen --kind crossingfan --n 6 --k 6 --seed 0",
     "fd6d4db8e975c7dd6abae4ab71e947015b6f87d400f62b299b4495a50beb0468"),
    ("gen --kind crossingfan --n 6 --k 6 --seed 1",
     "ebb5b29d92c55fa351080725a04ba22b7f9ce2fc0fd0512611a5b69d2fd39f20"),
    ("gen --kind plant_type1 --n 1 --k 3 --seed 0",
     "31029e7bbb2a372af8afa3246ad981124c07446d497af345460bb125f27c86d6"),
    ("gen --kind plant_type1 --n 1 --k 3 --seed 1",
     "ef8d3810b4ccf20cf76cbe122337858634502ca10d6384d26352367230c29be8"),
    ("gen --kind plant_type2 --n 1 --k 3 --seed 0",
     "98a663d92d66a454901d767fccee8fad0815711934aca5f34507bdd4a1213b75"),
    ("gen --kind plant_type2 --n 1 --k 3 --seed 1",
     "7cf8683dffe1429425a42551769fb15884c0f4a60fc1e75e8fad01f1d8391533"),
    ("gen --kind plant_type3 --n 1 --k 3 --seed 0",
     "52dd47b41089d360e3cd852c8d0d040b1248fd6603d574c4b8019377e57eaa88"),
    ("gen --kind plant_type3 --n 1 --k 3 --seed 1",
     "df15f8a2ade08d39a8704de7029a48610296802002af63d1fa7d74208ab6810b"),
    ("gen --kind twosided --n 8 --segments 2 --seed 0",
     "32317bf3a38457e34957485530623cfde213d3e49a1c46aceb3cb5a05cd4656d"),
    ("gen --kind twosided --n 8 --segments 2 --seed 1",
     "3181e22936b45572eb92c3179a82a1ed4630ea0756dc79bf0cfe57056fb6cd3f"),
    ("gen --kind twosided --n 8 --segments 2 --seed 2",
     "ea0182fce17d6667dc99a143f36bc4627aa651f46d45dc2a85d7836b441bdce5"),
]

EXPERIMENT_GOLDEN = [
    ("experiment --kind rays --n 14 --trials 4 --seed 3 --budget 200000",
     "4d44c8d415304dc669bba9fc2f8f88f591ce9739d42cab171ddeb738ffed30d6"),
    ("experiment --kind unitsegments --n 14 --trials 4 --seed 3 --budget 200000",
     "5f960de098fb8412a510c12d784ce52924b79e240c5b97fc909c910474c9797d"),
    ("experiment --kind rightflagpolylines --n 14 --trials 4 --seed 3 --budget 200000",
     "7cb0e43131cba1dd75d24a04bf94097d92af65a7ed6153fcb68339333401f494"),
    ("experiment --kind twosided --n 6 --trials 2 --seed 1 --budget 200000",
     "0aa4011c493c26589e8febfd9e3dfd47d396bacc9d266968fbc5238d5cc21b65"),
]

# Lemma and exact-coloring subcommands, run with `--file` on the stdout
# of a `gen` invocation (the family named by the first field).
LEMMA_FAMILIES = {
    "rfp30": "gen --kind rightflagpolylines --n 30 --segments 2 --seed 4",
    "rfp40": "gen --kind rightflagpolylines --n 40 --seed 9",
    "rays20": "gen --kind rays --n 20 --seed 0",
    "unit30": "gen --kind unitsegments --n 30 --seed 0",
}

LEMMA_GOLDEN = [
    ("rfp30", "alphaseq --alpha 1",
     "e3b1790bbe2a09a0dfb268f36e38375b613341fa4bb8329f6170d10c9d1d6fee"),
    ("rfp30", "alphaseq --alpha 2",
     "53ba885e09c4d250267bc762e05003388a737f1d9e2b0ffbfcb1dbee002de6ef"),
    ("rfp30", "alphaseq --alpha 3",
     "9ee9831bc3542e8d08b6ad6f426133adcc37f392cb06b564db9da22d8ea8986e"),
    ("rfp30", "gapsub --a 0 --b 0",
     "db348809614848004400ccd1b6f16d8b0a35baed73fc8c9bbf4e17367055b399"),
    ("rfp30", "gapsub --a 0 --b 1",
     "c753fa938cb447132d5ab3e6ce071e842308766e56940fa4596095f9e9075e54"),
    ("rfp30", "layers --source 1",
     "f9b19787644494d9d9a358b65fb269cc800fce58c386570da0b914f5bfba5599"),
    ("rfp30", "chi --exact",
     "f98badf3a4e6901a27cd5a2cf2e98dea52f1a7c3e9535783c083acab9b3dc4f9"),
    ("rfp40", "alphaseq --alpha 1",
     "428a2502e87a07b3b496896523eef8c64c852d834e8585484285918f8668ae14"),
    ("rfp40", "alphaseq --alpha 2",
     "0b069dcf7e344c39be4a2927f08269b6a52e6e6aabf78c6f29af09bf4efe6982"),
    ("rfp40", "alphaseq --alpha 3",
     "b404671c486f2d48ca94b564336a1b137af5f7f280698ac3812c9bb34810aa92"),
    ("rfp40", "gapsub --a 0 --b 0",
     "69c7d86c332e2713d4cf703b78f89e96e17cc75720f30870b26261e233a5cf82"),
    ("rfp40", "gapsub --a 0 --b 1",
     "ef3af7364d9a2edabd59f3a7501974708a17b6d951a0001d645930e77a80b563"),
    ("rfp40", "layers --source 1",
     "33a91a482bd41066c29d7d520983695a4361ec4bdd8ec3b6b27dc18e0fefa45e"),
    ("rfp40", "chi --exact",
     "7c9be5ee99ee43c0b834bcc5fc22a3d04ebe42b77e93bf16937b101d345a384f"),
    ("rays20", "alphaseq --alpha 1",
     "549386d6b4d0b4fdcb7831f1d3c64ba8e0609127c999aab42d740ea62f37c6cd"),
    ("rays20", "alphaseq --alpha 2",
     "f44800bd49bea0e37889c5f2a5361553af328e5e3aa36ce8be9b57a3020a94b2"),
    ("rays20", "alphaseq --alpha 3",
     "eba5992b734675136d42a60fe11bd6047740552e73a4632cf4f92399d3ca8887"),
    ("rays20", "gapsub --a 0 --b 0",
     "0f96283b10cd3b9232e7f9fc460509a405db9ff24853b7fcf0af34ad61203da3"),
    ("rays20", "gapsub --a 0 --b 1",
     "db19e6c4fe15d84a2977a7ddaedc7292c683b66acf0efae6c3e6ed0d069bc385"),
    ("rays20", "layers --source 1",
     "48db7a0518ea53be4df01be7140cb96414d609eb6f5a864d3fe8f1f586a14088"),
    ("rays20", "chi --exact",
     "bc459f44d2610a196d34c61583145e3a40c75dca64cb77180c71c113264b9ec2"),
    ("unit30", "alphaseq --alpha 1",
     "e3b1790bbe2a09a0dfb268f36e38375b613341fa4bb8329f6170d10c9d1d6fee"),
    ("unit30", "alphaseq --alpha 2",
     "f758be769e3f85056073dae2e00a9d78a11047ec67dbf5e264219b9210ef054d"),
    ("unit30", "alphaseq --alpha 3",
     "5662206b477665a276235303860eb241675cb164c06d60e135d2ab14ebe87893"),
    ("unit30", "gapsub --a 0 --b 0",
     "08ae6c0327ea3911d3376ee63d37591a68e3727300dab125fdabc42d8ff4d2f4"),
    ("unit30", "gapsub --a 0 --b 1",
     "fd88a42d2c36cea17529770c9d5a1ec41cdedadfd071ce551bdfdb4592a4031c"),
    ("unit30", "layers --source 1",
     "d0777e49ff366a19e775c6adc1a3967f19f2812fe9d73c55229fe31c13249d20"),
    ("unit30", "chi --exact",
     "f2570f0fc816fc6916d84dc079eab3537a9e28a76b2bca965c608f776e521cc1"),
]


def test_every_generator_kind_is_pinned():
    assert {argv.split()[2] for argv, _ in GEN_GOLDEN} == set(GEN_KINDS)


@pytest.mark.parametrize("argv, digest", GEN_GOLDEN + EXPERIMENT_GOLDEN)
def test_stdout_matches_golden_hash(capsys, argv, digest):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.fixture(scope="module")
def family_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("lemma-families")
    paths = {}
    for name, argv in LEMMA_FAMILIES.items():
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            assert main(argv.split()) == 0
        paths[name] = root / f"{name}.xmc"
        paths[name].write_text(text.getvalue(), encoding="utf-8")
    return paths


@pytest.mark.parametrize("family, argv, digest", LEMMA_GOLDEN)
def test_lemma_stdout_matches_golden_hash(capsys, family_files, family, argv, digest):
    command, *options = argv.split()
    assert main([command, "--file", str(family_files[family]), *options]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
