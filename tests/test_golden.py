"""Golden stdout: the sha256 of `xmcurves gen` output for every generator
kind at fixed seeds, of a few `experiment` tables, and of the lemma and
exact-coloring subcommands on fixed generated families.  The `gen` and
`experiment` hashes were taken from the Fraction-arithmetic geometry
kernel, before the integer kernel and incremental redraw checks replaced
it; the lemma hashes were taken from the exact-coloring engine that
solved every alpha-sequence prefix and every repeated subgraph afresh;
the file-subcommand and `plant` hashes were taken before the clique
enumerators, the redraw loops and the fan builders were merged into one
each.  Any change to a generated family, a table row, a breakpoint, a chromatic
number, a coloring, a gap subgraph, a clique witness, a configuration, an arc
analysis or a validation report changes a hash."""

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
    # the first draw of this one fails validation, so a slope is redrawn
    ("gen --kind rays --n 60 --seed 25",
     "4ff932acf5f8d9325aad5972447039f68d561a01fcd91e92f67e427d45b6a525"),
    ("gen --kind unitsegments --n 12 --seed 0",
     "8b65641df6139b13e229d7f017c2accee123f90818a09a675445d50026136531"),
    ("gen --kind unitsegments --n 12 --seed 1",
     "e8bdd2b44509e09ff29b9aa8c734a0385d3dd4a9f6d09135fc1dd9d0f4c9ca5a"),
    ("gen --kind unitsegments --n 12 --seed 2",
     "7dcb10c915036f63e1f81d68340bdd8445f5d3f06f4ab2525bf5fffa1b8721b3"),
    # the first draw of this one fails validation, so a segment is redrawn
    ("gen --kind unitsegments --n 16 --seed 8",
     "b9ba86b9bdc1477470cb6f2d6c49d8d47accfcae70a933570251c6d5e1c4e9c7"),
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

PLANT_GOLDEN = [
    ("plant --type 1 --k 3 --seed 0",
     "735144dcc1d06ba75106851ec58c16f581abfb7264eff154f176e4ad5aff1726"),
    ("plant --type 2 --k 2 --seed 1",
     "429dd4fc39c150c7ea04225352022286d64638fbc27991005bfb55fe1b9c00c6"),
    ("plant --type 3 --k 3 --seed 2",
     "2905ddf00c0fe942aa6ad474e8facf97e93a3324b3c7e38eeb84525dee87f81c"),
]

# File subcommands, run with `--file` on the stdout of a `gen` invocation
# (the family named by the first field).
FAMILIES = {
    "rfp30": "gen --kind rightflagpolylines --n 30 --segments 2 --seed 4",
    "rfp40": "gen --kind rightflagpolylines --n 40 --seed 9",
    "rays20": "gen --kind rays --n 20 --seed 0",
    "unit30": "gen --kind unitsegments --n 30 --seed 0",
    "rfp12": "gen --kind rightflagpolylines --n 12 --segments 3 --seed 0",
    "rfp20": "gen --kind rightflagpolylines --n 20 --seed 3",
    "rays12": "gen --kind rays --n 12 --seed 1",
    "unit12": "gen --kind unitsegments --n 12 --seed 0",
    "plant3": "gen --kind plant_type3 --n 1 --k 3 --seed 0",
    "two8": "gen --kind twosided --n 8 --segments 2 --seed 0",
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


# Every other file subcommand: (family, argv, exit code, digest).
FILE_GOLDEN = [
    ("rfp12", "validate", 0,
     "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22"),
    ("two8", "validate", 1,
     "ffe7845b9ff643ea366de49bb0da1ac2ff1b39ee8cb46611820a20644fe83756"),
    ("rfp20", "graph --format adj", 0,
     "52f9aae486f0816786f84a953d1f44ca87e3194d5d3ec05f7698604171b53008"),
    ("rfp20", "graph --format dot", 0,
     "4fe5c4cadd24e97cb24f29270fa54638c13f8d21714279ffe5293b20837944a6"),
    ("rays12", "graph --format adj", 0,
     "41448a0f13b484da389e2f5e491322a19dc0f75907cebaeca3cf01860921bfaf"),
    ("rays12", "graph --format dot", 0,
     "0325764feb9457b4657e19a93931afb960d86859a8af32ddf20409c9112e73af"),
    ("unit12", "omega", 0,
     "a56a6af685370089b95d421b3cfc2382f999fa8f3a69aafc218fa481c4454d9d"),
    ("rays12", "omega", 0,
     "0acd478db1dc0c96a7516449c4a59485da710cb80c6cabee7cbc6ae974b83931"),
    ("rfp20", "omega", 0,
     "974c186d233834b9b898d885fe420eb8bcfb53e9a5d2776e6644ada4c0d276cc"),
    ("unit12", "keylemma --a 5 --b 9 --k 2", 0,
     "4ee3612cae368543d349639162d2c4f6df9634b24a883c65f12c7b382e7345a0"),
    ("rfp12", "keylemma --a 5 --b 10 --k 2", 0,
     "145f029179442b995f44d1cac6c0dfc17c46bdb8753c83c80610d802d3d309d7"),
    ("rfp20", "keylemma --a 10 --b 20 --k 2", 0,
     "8390599e41b0444313eb8632a205f0a58aef1262ed990b0f8b342648e12672f3"),
    ("rfp20", "keylemma --a 4 --b 9 --k 2", 0,
     "1747bb94a3bc7e1acf2bb987080e4760e5cffcab302561543b3d3387036c8144"),
    ("unit12", "arcs --a 1 --b 6 --side a", 0,
     "d18bb8a93999fd0e08e7dae7efbeeb6368183aea374e931051db8ad73685c01c"),
    ("unit12", "arcs --a 1 --b 6 --side b", 0,
     "b2aa5c559d5c3a008cbbb1c0f0e93834598b17cf54133548f3e85208308bf195"),
    ("rfp20", "arcs --a 10 --b 20 --side a", 0,
     "56388cd2d94047c3c30b45d4a733c4e6833c22e860f8660406512478b9722e34"),
    ("rfp20", "arcs --a 10 --b 20 --side b", 0,
     "42eac7a9458655f51ce4b4e6fe571f1e5e653ef3948100be1f8d04c9945a5452"),
    ("rfp20", "arcs --a 4 --b 9 --side a", 0,
     "e416c6dc7241cce0004b424f601ff888b5032182c15c2aa1505d743d39a5ab52"),
    ("rfp20", "arcs --a 4 --b 9 --side b", 0,
     "ec779bf16a14e2b3677090b74a6e417ef49608a9b24161371b3cdb8bf967a8ab"),
    ("unit12", "detect --type 1 --k 2", 0,
     "189f61e7554efdf27b4d699cdc126b126509e19cf9126557570e71b7754fc171"),
    ("unit12", "detect --type 2 --k 2", 0,
     "2ab1400e568c7adf216b3d4f76272b97961753cb9dfe7bcb831e4c28e08208b4"),
    ("unit12", "detect --type 3 --k 2", 0,
     "75616dc61dfb89f3998712fbc35656a0bc1f46b7c4ec243ca0704c5e071030e7"),
    ("unit12", "detect --type clique --k 3", 0,
     "0ad0b3b91a9e3ac6e5b76c284b339d285dfaee29416930789357045d26a2fdee"),
    ("rays12", "detect --type 3 --k 2", 0,
     "1b139e803552bc1fc060829d6cc033e5154e40693abd98965d612edeae3a980f"),
    ("rays12", "detect --type clique --k 4", 0,
     "487902ff897ccc1eb91894140ede8b80b8984bc9e168d1aee62bfaccfc2cecc0"),
    ("rfp20", "detect --type 1 --k 2", 0,
     "bf115e724b69ac0593b6b198b8d152f4dfcb3982879f19f100d9276e59cfc479"),
    ("rfp20", "detect --type 2 --k 2", 0,
     "54c39692739add1e7fcafdea2c48b4c2d4d5c94caea2f9e50862105cd89d6f93"),
    ("rfp20", "detect --type 3 --k 2", 0,
     "488a853c66b9d55e6f039191c17ab7ed6b46a3c6b4517e9f209d73587e024a03"),
    ("rfp20", "detect --type 1 --k 3", 0,
     "f3b2fbc65c3370ff178f4907c1d9803f9c7e703bc3868c8fc1501537a34466d8"),
    ("rfp20", "detect --type 2 --k 3", 0,
     "a196e6d7a68b8b8db7fc0ddf5e41ce3ce367b5083d730ff0cd25a468b5b8de32"),
    ("rfp20", "detect --type 3 --k 3", 0,
     "789b1b96a06c7823087ee285c98aac6dbe289027113b0782e8e80653493a7ec0"),
    ("rfp20", "detect --type clique --k 4", 0,
     "02060c3b9211122561fa9a9d860d60c5f329bc65b3a6e98081bfea0c419673f4"),
    ("plant3", "detect --type 3 --k 3", 0,
     "7a4142325c11ad8faf55ba5ab248a377b80ddaaee27cd42630bc58fda48c5647"),
    ("plant3", "detect --type 2 --k 3", 0,
     "8bfbf54496a9857dca9e63751a07b9b689de4be69cacfbee80f92a26fd83c7d8"),
    ("rfp20", "shortcheck", 0,
     "8f49cc5c8d578a403dd889654d92a0c536a3b380366255390e0f439bec542a01"),
    ("rfp20", "shortcheck --k 3", 0,
     "e83a4e5c04a59d054ccf5dbcef93ba30be7b654fa23b30763936ae10d258864b"),
    ("rfp20", "shortcheck --k 2", 0,
     "11211a5e907ed7873ffee1800b38369ee941f84c0894397127aca1e24c30bcf0"),
    ("unit12", "shortcheck", 0,
     "b30f75e914c919ac741ef18babf3c503897e7a86c2955eca2d00bd4b1ac1e4b0"),
    ("two8", "split", 0,
     "c97a76bbc398d55e871b431bed226adaaf210a5b36453a13bf796de78d9f9810"),
]


def test_every_generator_kind_is_pinned():
    assert {argv.split()[2] for argv, _ in GEN_GOLDEN} == set(GEN_KINDS)


@pytest.mark.parametrize("argv, digest", GEN_GOLDEN + EXPERIMENT_GOLDEN + PLANT_GOLDEN)
def test_stdout_matches_golden_hash(capsys, argv, digest):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.fixture(scope="module")
def family_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("families")
    paths = {}
    for name, argv in FAMILIES.items():
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


@pytest.mark.parametrize("family, argv, code, digest", FILE_GOLDEN)
def test_file_stdout_matches_golden_hash(capsys, family_files, family, argv, code, digest):
    command, *options = argv.split()
    assert main([command, "--file", str(family_files[family]), *options]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
