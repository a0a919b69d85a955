"""Pinned sha256 digests of restructuring artifacts.

A given config must keep producing byte-identical set and key files, so
the bytes each recipe emits are pinned here, on one random and one
rarity golden and, for the recipes that refactor wide cones, on a 6x6
multiplier, together with the graph fraig leaves behind on an 8x8
multiplier and a 40-PI random golden, each paired with its recipe-3
copy, and on a 30-PI random golden.  The files and the key that the
acceptance forge config emits are pinned too.  A digest that moves means
a pass changed behaviour, not just its speed.
"""

import hashlib
import os

import pytest

from htforge.aig import export_aiger, strash, to_aig
from htforge.netlist import write_netlist
from htforge.restructure import (RECIPES, apply_recipe, fraig,
                                  resubstitute, rewrite)

import htforge.trojan
from htforge.judge import ForgeConfig, forge_benchmark
from htforge.netlist import EXHAUSTIVE_PIS

from conftest import (array_multiplier, random_netlist, rarity_netlist,
                      twin_netlist, wide_fraig_graph)
from test_acceptance import _acceptance_forge_cfg

# recipe r's digest is entry r - 1
RECIPE_DIGESTS = {
    "random5": [
        "7df9af11c2118bfad6d3d52edaa721bf160a124e3f2ec06836627e9b768a1a75",
        "2598ac2f3cd6cf0eebd59632efb6ddb60c812f6b30ca137a06db8a487b2abe8e",
        "94b366f8499065cf665c0b4c9aa2e142dbf93cf9ce43e3773b9817f444351f9d",
        "1e0f9aa9ccf8133d0b35c4b620db21e927c4a8cfd9672c22668f6a76e1d8c4af",
        "5a930f05a5d978ee8e831c0e94757e244c5202e8507098b36292e51933b81938",
        "da83182012fd0a531d2bde7a98fd7fc6d7b203f10b7619bd002a590874bafef9",
        "a54bb752e372249483044f794f65934ec12a12cfffa4a1ddc7f57e708f30a161",
        "8656737e572c424fb87caca5561cd89005263313aeb0bbf2fcc2b567cc7d2f28",
        "734f236ae046d60f6e3b5b367babff9e726de33bbb32e430b8ea59cbc19454d7",
        "55d9c2540c72e3f7c1d4cad6f5d3ad814af1ffa32730e5004e3de0bb1e85d003",
        "2d8ff838a5dbb24c0dbbae95c99b2805e591ef4aa874baca2b9e2037a5c35939",
        "e51bfd316ee8fae35942c240212890818a17f97c1c3070655c25a0a2aa216932",
        "51826f006ec607d73933ebad65a758c8a77a85a4040f93db3b037b33281a191d",
        "80a82ce0eb5b1d1ec83968b503b0789e5619ec0727637f5cbe9545bcd5e41ee8",
        "91e038e96d13f53fe4e04b77643be56c11c775448ccf492763d4a97286c10ce0",
        "d5b9b37371afabebb2b4dc244a8d8927ca0487badba80c6392ba854b48e803ba",
        "dd428d88dfef7ffa618e41df0c00b3ff484396612cc0be6a2a3054cbf196b74d",
        "e1b9bc77925cafe5620bda104a9e5339be28be3a8cabfd6a601c09fa7e91b86b",
    ],
    "rarity1": [
        "1a418e479e33b3fe4f2943fe6bbb032d579b78fec2a24d7bfef641d96e2d9c0e",
        "ca6eb9685350ac622f862885b4704d0061780282f06f506c89ee861450176db9",
        "e2433f1a9181388f08cf1d97f1f695d57b3aea49f4a128d537a5c3bbb66e47b7",
        "71c5bf47b1f3bc0bba5678e3d015855f0c063bc532bb784d78a90d63787904b3",
        "8b2054d70516e0d66c685294b7519de7a382ab9fa85951414623213585082253",
        "5d40220f73658debc5b13b1cfcbe56a6ce31f81c3a1b89a0bbf1c59b7a469af7",
        "ff1fa378805f0d7c221e0380ad7a4c34189eb27cf4d06df972395cbccd51498c",
        "bba64ce31dedd57fecd7ef5b8b5042aa7fe4d33071b75ec6e367080059fdd74d",
        "c2c8f707bb4d7baf1c84382b10189474dbe03aebd13af82ff5c162565847ea43",
        "929705aad0e09e1ffeb0113b6e33ef3fce4e1a08c1d7974ea119a8527f1325ee",
        "6ddfdb26cc24e1daf660d77782910d530bd8a7c4121408008fb69fb508a1a07b",
        "e59d13bcdb27ea07c6526582208be149f563f2d6d267b6e9298125423a9dfd4e",
        "53ae871c206eb3aef072a20b6b65063d73ac1a12d8a7b9242e6b4c58533ec39e",
        "8dc38428d36f7829d1aba62cef2c661c3d051780cd6242bd52951859b7c09326",
        "43244d9998a9ac9f66688c78cff3d7d64603bba478fdc4545c34cd1150c4e6cc",
        "b775b561bd2cf53aaa1d145c279dbb5c0b1a5319125bcd29adeb166f26ac1b6e",
        "a1466cec7d5d91942ca06074ccc3704c49167ab51ea3db288edd0ee08a13611f",
        "0bffba394049798d88abe62be1d4933b79574631cfce06306c973239392bb4ac",
    ],
}

# recipes whose refactor reaches 10- and 12-input cones on a 6x6 multiplier,
# whose cones are copies of one cell, and the resub recipes (6, 9, 15, 16,
# 17) and the cut-5 rewrite (14), which meet its XOR-rich logic
MULTIPLIER_DIGESTS = {
    4: "99d4e8c396927d4cc97472c3968c00041a96a388453bfa33edb7b6f5ca7f935a",
    6: "d5ee23a3503a67e0ef0cc7d3c4548a825afb2815260e668f4cd96a82c1e739c8",
    7: "67920d0b6b7836bd9c3df3f02923cd1ad09163438ba57eef8e8dce1a738ca191",
    9: "59b20017109e2c072beb0511cf55a83f08564c1a0833923a66718b12225be01b",
    10: "865e1526f9c49bf5cffb98fd6a398bde2c99f99b7ebb4bb7c86b6f3ceeed44b3",
    14: "2017f5313bb705b8ae82a11d6377f4a90f11f6793ad8cb4e73a102ad939b9f18",
    15: "5d32423640a33835ed33d2fb574d5a98a9cc3c9bcbc3d137ec1e1c77f3983fe2",
    16: "31ffa633abec670514b2f5a06a6a5adf9b354b2a2f4f6870228011e8e6ff9943",
    17: "98eded87230a9076a1ca1d27aed942f2c4e63f052ed046fa3cb47208ea313ded",
}

FRAIG_TWIN_DIGEST = "75e5972cf390c20c9299abbab5c8e04562c0097718d0462e6150fda3307321f9"
# fraig where some candidate pairs span more than MAX_PROOF_PIS PIs and
# are never merged: (ANDs in, ANDs out, digest).  On "rand30" the merged
# graph's supports are narrower than the input's, so a bound read on the
# merged graph would merge more.
FRAIG_WIDE_DIGESTS = {
    "twin40": (1290, 688, "ee2f1de83c6a07a0c6da7c3cd5608e8841d7eb940771ac4172c8afc659b539a5"),
    "rand30": (419, 356, "0e0101a5ff6d3d239d30c87a525d6a028e8f96b9f5720f2ceabc6217a8066835"),
}

# resubstitute on random goldens of 12, 14 and 16 PIs (seed and PI count,
# gate count), strashed and after rewrite, where the divisor scan stops at
# max_divisors: (golden, stage, max_divisors, seed) -> (ANDs in, ANDs out,
# digest)
RESUB_GOLDENS = {"rand12": (12, 120), "rand14": (14, 150), "rand16": (16, 180)}
RESUB_DIGESTS = {
    ("rand12", "strash", 5, 0): (169, 153, "5ef6fbe9df9ea74b0d6677c5f5e816d76e2b88c0159c81dbf5245b2509cb18d2"),
    ("rand12", "strash", 5, 3): (169, 153, "5ef6fbe9df9ea74b0d6677c5f5e816d76e2b88c0159c81dbf5245b2509cb18d2"),
    ("rand12", "strash", 20, 0): (169, 125, "3480ee42e826abeaaae39c839f1f85123423b90ce1c8718ff7ea53ccd57b8e05"),
    ("rand12", "strash", 20, 3): (169, 125, "3480ee42e826abeaaae39c839f1f85123423b90ce1c8718ff7ea53ccd57b8e05"),
    ("rand12", "strash", 24, 0): (169, 125, "3480ee42e826abeaaae39c839f1f85123423b90ce1c8718ff7ea53ccd57b8e05"),
    ("rand12", "strash", 24, 3): (169, 125, "3480ee42e826abeaaae39c839f1f85123423b90ce1c8718ff7ea53ccd57b8e05"),
    ("rand12", "rewrite", 5, 0): (119, 119, "ac7c9bb051337698cd1833e934666939d8d04d1aa2fb202b5d328f246001df1d"),
    ("rand12", "rewrite", 5, 3): (119, 119, "ac7c9bb051337698cd1833e934666939d8d04d1aa2fb202b5d328f246001df1d"),
    ("rand12", "rewrite", 20, 0): (119, 110, "d634ae491071d5f6e0fadc282a0cd4f4100a4b7b0cd9a54456304e52f5fd4669"),
    ("rand12", "rewrite", 20, 3): (119, 110, "d634ae491071d5f6e0fadc282a0cd4f4100a4b7b0cd9a54456304e52f5fd4669"),
    ("rand12", "rewrite", 24, 0): (119, 110, "d634ae491071d5f6e0fadc282a0cd4f4100a4b7b0cd9a54456304e52f5fd4669"),
    ("rand12", "rewrite", 24, 3): (119, 110, "d634ae491071d5f6e0fadc282a0cd4f4100a4b7b0cd9a54456304e52f5fd4669"),
    ("rand14", "strash", 5, 0): (204, 200, "75a8d5cc48c1c95110e20e137ec1e31c4324ab8808d45883e2d7a346f236ad33"),
    ("rand14", "strash", 5, 3): (204, 200, "75a8d5cc48c1c95110e20e137ec1e31c4324ab8808d45883e2d7a346f236ad33"),
    ("rand14", "strash", 20, 0): (204, 183, "f3dc2fdd335609b8babf226f068e7cdfa90227c90d376821e671120590d1fa8c"),
    ("rand14", "strash", 20, 3): (204, 183, "f3dc2fdd335609b8babf226f068e7cdfa90227c90d376821e671120590d1fa8c"),
    ("rand14", "strash", 24, 0): (204, 183, "f3dc2fdd335609b8babf226f068e7cdfa90227c90d376821e671120590d1fa8c"),
    ("rand14", "strash", 24, 3): (204, 183, "f3dc2fdd335609b8babf226f068e7cdfa90227c90d376821e671120590d1fa8c"),
    ("rand14", "rewrite", 5, 0): (190, 189, "e9e537ce27ec1512a2a0f5a4ab2387762ced7f922600b611b82df710553a2ab8"),
    ("rand14", "rewrite", 5, 3): (190, 189, "e9e537ce27ec1512a2a0f5a4ab2387762ced7f922600b611b82df710553a2ab8"),
    ("rand14", "rewrite", 20, 0): (190, 177, "f2c5c8c91f137d2fb424040b23c4581940867bd4736a2917fd86f027ae251c7e"),
    ("rand14", "rewrite", 20, 3): (190, 177, "f2c5c8c91f137d2fb424040b23c4581940867bd4736a2917fd86f027ae251c7e"),
    ("rand14", "rewrite", 24, 0): (190, 177, "f2c5c8c91f137d2fb424040b23c4581940867bd4736a2917fd86f027ae251c7e"),
    ("rand14", "rewrite", 24, 3): (190, 177, "f2c5c8c91f137d2fb424040b23c4581940867bd4736a2917fd86f027ae251c7e"),
    ("rand16", "strash", 5, 0): (272, 266, "cf0915d447260106dc465fd951ae370197cb932663c57ee5c35661fa285ebea6"),
    ("rand16", "strash", 5, 3): (272, 266, "cf0915d447260106dc465fd951ae370197cb932663c57ee5c35661fa285ebea6"),
    ("rand16", "strash", 20, 0): (272, 243, "1f5d6849210713fd4764cf1e625052079556d041a9eed765a50ee222353394fc"),
    ("rand16", "strash", 20, 3): (272, 243, "1f5d6849210713fd4764cf1e625052079556d041a9eed765a50ee222353394fc"),
    ("rand16", "strash", 24, 0): (272, 241, "e23b13319d89ef05fa62875e74fb48237e2bffee2695aea75bd56559e91784b5"),
    ("rand16", "strash", 24, 3): (272, 241, "e23b13319d89ef05fa62875e74fb48237e2bffee2695aea75bd56559e91784b5"),
    ("rand16", "rewrite", 5, 0): (245, 242, "136c139c245d02e3af22b08c4afcdf48c9824c8984eaecc1412c6a42d998e515"),
    ("rand16", "rewrite", 5, 3): (245, 242, "136c139c245d02e3af22b08c4afcdf48c9824c8984eaecc1412c6a42d998e515"),
    ("rand16", "rewrite", 20, 0): (245, 234, "42a110d534a6188b68aacb283880a8f839e2d09f5c7263d77f81ff09b12ecaf0"),
    ("rand16", "rewrite", 20, 3): (245, 234, "42a110d534a6188b68aacb283880a8f839e2d09f5c7263d77f81ff09b12ecaf0"),
    ("rand16", "rewrite", 24, 0): (245, 232, "f6f7152ff173eadf33f6f1b5f97e95d82e42263676636f4fe93b0c7562855f56"),
    ("rand16", "rewrite", 24, 3): (245, 232, "f6f7152ff173eadf33f6f1b5f97e95d82e42263676636f4fe93b0c7562855f56"),
}

# every file BenchmarkSet.write_dir emits for the acceptance forge config:
# the circuits (under circuits/) and the manifest
ACCEPTANCE_SET_DIGESTS = {
    "b0000.v": "cb6f14becfd91a2a4c2fd83b0c13f4f3b42934ac77e84cdefa6f2baa9f411688",
    "b0001.v": "5b8ee5acdb82be2323be15b39c785489742362a96865c440e7084ee9df3c4f20",
    "b0002.v": "2f421039a23fa15f3c7eb295eed742e24997c235500666abbbae469db6ce19d6",
    "b0003.v": "fa8f73dafb36763d7cc97a834281e2ba55f8ab17cbf968cb4a18cb7f3fdf8ed5",
    "b0004.v": "1b09d742fd939d34e6ba547e2fcbc75451ad66d0bfacd1fbc449e524173e8bdd",
    "b0005.v": "c7e714ed77471fae5deae4011109245215e30a8aeafc574fb3342b3c8972c41f",
    "b0006.v": "2d9a28e0dbc9cbf5de162ddff810660aa08a594ab0435de0d6f04b0e59751a7f",
    "b0007.v": "4d04fb40f512883d91abc931e82484ac16b7400f432dad751f0ad270a5705751",
    "b0008.v": "c8c5ed2d2093d269381e94c674de1a36ca3a233fb25adc5845ccf4f572775518",
    "b0009.v": "f09bcafb079c81737a15a63ec488306dbd412efa1b3f006b9f173a054d9d8bbc",
    "b0010.v": "8d75d4e51268610a74a4d9d9dbdb28c65df1defdd6e5328853046d782988bdf9",
    "b0011.v": "7150600112e87e9a8de772edcdf7ae9f8b38f35e906fb6782735dd84df394670",
    "b0012.v": "608082fb59c00739504e106db8dd3b7dd801ad38a877f66df50c7fc2ae17f7c0",
    "b0013.v": "d8631426098861216a92c33a46eb07842f859889e6dd1062a560d87bc4275e72",
    "b0014.v": "589906d3119bcfbdbb40f2a6d6a9c392bc5aa81e8b9cbed9ca1bbe5b664df5b6",
    "b0015.v": "f9e82f352318dbd927f58a8c5132d0ba8d5a14f03e8372ec720e51e18c77007f",
    "b0016.v": "7ad51688f35e24a0040546b3819183283a032f17827d835dfc186819ee1993ed",
    "b0017.v": "c3594821c5424774fed6cf9eff13b2677b22c00e5e2804f4a9e518333a4a2b6a",
    "b0018.v": "e3e73c342341f9356a3ca6d9c5a85cfea6d1f236b3b4a6a98c228e5db7859de5",
    "b0019.v": "aa0e7dcdafc613b5fd3ddeb20e4fd315d383491223d698ce800147474a64a130",
    "b0020.v": "7e5cf8b814a63bdbd27849b13dc44f77dd6dda72339d96fcc13d707e2cf38212",
    "b0021.v": "572a441f560df12f766009133c9de222d8b050f48bb72bb878bb78e1f7bda069",
    "b0022.v": "0671784959ecba0d1015e3d9ca0793c2f3946992dd8462a6bcd26502b76f1513",
    "b0023.v": "25b80b205359546ca8dcead5b8c7a507703003628550fd2a8f27586b1b7959a2",
    "b0024.v": "88455c06a2fef8f2966ea124f3faac8f9bc7326e71242b7bf88f9437f79a556d",
    "b0025.v": "ac257a9b233d7508bc040e0b0157dc425c900c06cfd048e1574017f606591211",
    "b0026.v": "528aa2ecd809ee006a205d2bb1dd94cdeb97d2fbf15dab8246233a5850d2ba73",
    "b0027.v": "6d04bfd836780990ef826618a6973fcddb6c9219e828324740f55cfe92b52d75",
    "b0028.v": "2dcfc1ad58a06dfee9b7cb5f17de9025367d783fed8bf3ec02ddb515d7ac9171",
    "b0029.v": "df8514ce205393803b79c1fb522223ca772ee9b2896bd4424e132f7f70e46534",
    "b0030.v": "330c85c5c224d6bbe40541efeea06dccb5038fbd9cd13ecb3056c52369f8f003",
    "b0031.v": "a45fabb648e4cd336860cb742a5336569dec1b06618d40cc023f42cfed1532ec",
    "b0032.v": "884b4180f7cb9c8f34a01a0cbbe16628816aded2a8cd8ef924b6dc1b9f6f220c",
    "b0033.v": "b109ae1f8b8211ef7a9683b7620e193bf41b6c78b265f3f46cd47ca4e6459135",
    "b0034.v": "1d95c6cde31e97adc1556f54bd24571567e9d1d267c5980c6443778f57e11645",
    "b0035.v": "1db4c84a9ecefd3875323c8a08beea4f538d599170329df5ea0d4afe946522bb",
    "b0036.v": "1461d2d5b24575c761eacf1f459b5f15838f391ac881983dd91ef212d3c7e4f6",
    "b0037.v": "ff6d0cebcbd9ddf4164a22e75d49a5e015a8299a587f074b0acab9fc816490ff",
    "b0038.v": "0aa9f081025b18ead9bd7bd8d1d9e0296d1484b16f9b7330a00e0f2bb65f6632",
    "b0039.v": "7a70cfd2eede292ad902f985f2d0d5bddd28cb8af5ac37d91dd51c0711590510",
    "manifest.json": "eca169540a703e45fa383791801792a66ba9c53dffe492828f1fd5ec5e2a1a57",
}
ACCEPTANCE_KEY_DIGEST = "b766a070837ed84c527f9e362631c8b41a363c8ae3de7b09774f9bc7a8b7518f"

# one infected variant of a 20-PI rarity golden whose width-4 trigger the
# random probe never sees fire, so its activation comes from the trigger
# search on a cone above the probe's reach and within EXHAUSTIVE_PIS:
# circuit, manifest and key
RAR20_DIGESTS = (
    "ce0ff9512989694803a745d374c2f55d163bbdf57caf31a474757b1080dfbdee",
    "7d5621efc12eb508eaefc2049628ba79ccbeaf699e3cfa47f5dea128eacc8032",
    "2c01a555df5286aa238f171420d0a9c1983fc6b0f1b0ac0278c485ba81e57bb1",
)

# a 16x16 array multiplier (the function of ISCAS-85 c6288, 32 PIs) forged
# into four variants, two infected: the first pin above EXHAUSTIVE_PIS.
# Circuits b0000-b0003, manifest and key
MUL16_DIGESTS = (
    "2637cf918860b9d4ef80ae2287d330ed83ad7ac7a7ba6c52f2881e1a121a3ee2",
    "3c618fea58cc8e562acd02d3900c17be1b006a8911ef80966895b26974a1419c",
    "3da40de2cd779dc7ed52a2a70e8979517fb934b867c45c0d2930ef5bb6e37ec4",
    "a05fc8ffe9195a8c1ad26d1f8d013472b18a582114c1be9774a49462382762f0",
    "6e240f7cadd0cf76961ce5aa43415fbbb05e73935b6d813c282c01ff37c6758f",
    "8f8a7a9d73e6ea950c66e6ca33870ef7d233bfa3d2d76a1a873cc188eef253e5",
)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _golden(name):
    if name == "random5":
        return random_netlist(5, n_pis=10, n_gates=80)
    return rarity_netlist(1, pis_per_branch=4)


@pytest.mark.parametrize("name", sorted(RECIPE_DIGESTS))
def test_recipe_output_bytes_pinned(name):
    n = _golden(name)
    got = [_sha(write_netlist(apply_recipe(n, RECIPES[r], seed=7)[0]))
           for r in sorted(RECIPES)]
    moved = [r for r, (a, b) in enumerate(zip(got, RECIPE_DIGESTS[name]), 1)
             if a != b]
    assert not moved, f"recipes whose output bytes changed: {moved}"


def test_multiplier_recipe_bytes_pinned():
    m = array_multiplier(6)
    got = {r: _sha(write_netlist(apply_recipe(m, RECIPES[r], seed=7)[0]))
           for r in MULTIPLIER_DIGESTS}
    moved = [r for r, want in MULTIPLIER_DIGESTS.items() if got[r] != want]
    assert not moved, f"recipes whose output bytes changed: {moved}"


def test_fraig_twin_bytes_pinned():
    m = array_multiplier(8)
    g = strash(to_aig(twin_netlist(m, apply_recipe(m, RECIPES[3], seed=7)[0])))
    f = fraig(g)
    assert (g.n_ands, f.n_ands) == (929, 528)
    assert _sha(export_aiger(f)) == FRAIG_TWIN_DIGEST


@pytest.mark.parametrize("name", sorted(FRAIG_WIDE_DIGESTS))
def test_fraig_wide_bytes_pinned(name):
    # test_restructure checks that these reach pairs over MAX_PROOF_PIS
    g = wide_fraig_graph(name)
    f = fraig(g)
    assert (g.n_ands, f.n_ands, _sha(export_aiger(f))) == FRAIG_WIDE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(RESUB_GOLDENS))
def test_resub_bytes_pinned(name, monkeypatch):
    import htforge.restructure as rs
    plain = rs._divisors
    capped = []

    def scan(w, node, mffc, s_node, most):
        divs = plain(w, node, mffc, s_node, most)
        capped.append(len(divs) >= most)
        return divs

    monkeypatch.setattr(rs, "_divisors", scan)
    pis, gates = RESUB_GOLDENS[name]
    g = strash(to_aig(random_netlist(pis, n_pis=pis, n_gates=gates)))
    for stage, h in (("strash", g), ("rewrite", rewrite(g))):
        for max_divisors in (5, 20, 24):
            for seed in (0, 3):
                capped.clear()
                out = resubstitute(h, max_divisors=max_divisors, seed=seed)
                assert any(capped), (stage, max_divisors, seed)
                assert ((h.n_ands, out.n_ands, _sha(export_aiger(out)))
                        == RESUB_DIGESTS[name, stage, max_divisors, seed])


def test_acceptance_set_and_key_bytes_pinned(tmp_path):
    bench, key = forge_benchmark(_acceptance_forge_cfg())
    bench.write_dir(str(tmp_path))
    got = {}
    for base, _, files in os.walk(tmp_path):
        for f in files:
            with open(os.path.join(base, f), "rb") as fh:
                got[f] = hashlib.sha256(fh.read()).hexdigest()
    moved = sorted(f for f in got.keys() | ACCEPTANCE_SET_DIGESTS.keys()
                   if got.get(f) != ACCEPTANCE_SET_DIGESTS.get(f))
    assert not moved, f"set files whose bytes changed: {moved}"
    assert _sha(key.to_json_text()) == ACCEPTANCE_KEY_DIGEST


def test_searched_trigger_set_and_key_bytes_pinned(monkeypatch):
    cones = []
    search = htforge.trojan._rare_activations

    def spy(cone, trigger, limit):
        found = search(cone, trigger, limit)
        cones.append((len(cone.inputs), len(found)))
        return found
    monkeypatch.setattr(htforge.trojan, "_rare_activations", spy)
    cfg = ForgeConfig(golden=(("rar20", rarity_netlist(1, pis_per_branch=5)),),
                      nb=1, infected_counts={"rar20": 1}, recipe_pool=(1,),
                      trigger_widths=(4,), master_seed=1)
    bench, key = forge_benchmark(cfg)
    (_, text), = bench.entries
    assert (_sha(text), _sha(bench.manifest_text()),
            _sha(key.to_json_text())) == RAR20_DIGESTS
    # the shipped trigger was searched for, on a cone the scan decides
    assert any(15 <= pis <= EXHAUSTIVE_PIS and found for pis, found in cones)


def test_paper_scale_multiplier_set_and_key_bytes_pinned():
    cfg = ForgeConfig(golden=(("mul16", array_multiplier(16)),), nb=4,
                      infected_counts={"mul16": 2}, master_seed=5)
    bench, key = forge_benchmark(cfg)
    got = tuple(_sha(text) for _, text in bench.entries)
    got += (_sha(bench.manifest_text()), _sha(key.to_json_text()))
    assert got == MUL16_DIGESTS
    # both infected variants relaxed the width-4 trigger to 3 rare nets
    # after four failed insertions
    infected = [e["seeds"] for e in key.entries.values() if e["trojan"]]
    assert [(s["attempts"], s["rare_count_used"]) for s in infected] == \
        [(4, 3), (4, 3)]
