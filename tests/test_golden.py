"""Golden stdout: the sha256 of `xmcurves gen` output for every generator
kind at fixed seeds, and of a few `experiment` tables.  The hashes were
taken from the Fraction-arithmetic geometry kernel, before the integer
kernel and incremental redraw checks replaced it; any change to a
generated family or a table row changes a hash."""

from __future__ import annotations

import hashlib

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


def test_every_generator_kind_is_pinned():
    assert {argv.split()[2] for argv, _ in GEN_GOLDEN} == set(GEN_KINDS)


@pytest.mark.parametrize("argv, digest", GEN_GOLDEN + EXPERIMENT_GOLDEN)
def test_stdout_matches_golden_hash(capsys, argv, digest):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
