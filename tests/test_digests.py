"""Pinned sha256 digests of restructuring artifacts.

A given config must keep producing byte-identical set and key files, so
the bytes each recipe emits are pinned here, on one random and one
rarity golden and, for the recipes that refactor wide cones, on a 6x6
multiplier, together with the graph fraig leaves behind on an 8x8
multiplier paired with its recipe-3 copy.  A digest that moves means a
pass changed behaviour, not just its speed.
"""

import hashlib

import pytest

from htforge.aig import export_aiger, strash, to_aig
from htforge.netlist import write_netlist
from htforge.restructure import RECIPES, apply_recipe, fraig

from conftest import array_multiplier, random_netlist, rarity_netlist, twin_netlist

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
# whose cones are copies of one cell
MULTIPLIER_DIGESTS = {
    4: "99d4e8c396927d4cc97472c3968c00041a96a388453bfa33edb7b6f5ca7f935a",
    7: "67920d0b6b7836bd9c3df3f02923cd1ad09163438ba57eef8e8dce1a738ca191",
    10: "865e1526f9c49bf5cffb98fd6a398bde2c99f99b7ebb4bb7c86b6f3ceeed44b3",
    15: "5d32423640a33835ed33d2fb574d5a98a9cc3c9bcbc3d137ec1e1c77f3983fe2",
    17: "98eded87230a9076a1ca1d27aed942f2c4e63f052ed046fa3cb47208ea313ded",
}

FRAIG_TWIN_DIGEST = "75e5972cf390c20c9299abbab5c8e04562c0097718d0462e6150fda3307321f9"


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
