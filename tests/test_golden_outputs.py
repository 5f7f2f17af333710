"""Golden-output gate: small configs run through `cli.run` must write
byte-identical data files and return the same exit codes as the recorded
values.  Tree floats come from IEEE division and `math.exp`, so their
hashes do not depend on the machine's linear-algebra build.  The Euclidean
cover configs pin the lattice stencil of the ball system; their pair tables
sum squared coordinate differences in numpy, with no BLAS call.  Re-record
a hash only when a change to the outputs is intended, and say why in the
change log."""

import hashlib
import math
import os

import pytest

from visbound.cli import RunConfig, run

TREE_SCALES = [4.0 * math.exp(-k) for k in range(1, 9)]
CIRCLE_SCALES = [2.0 ** -k for k in range(1, 7)]

# name -> (config fields, expected exit code, {data file: sha256}); seed 3
GOLDEN = {
    "metric-dA": (
        dict(experiment="metric", space="tree4", metric="dA", A=1.0, n=120), 0,
        {"pairs.csv": "ba7a4a6db576846db8918f5cd3258a8af89e590f5af00434eb26564f1908ef54"}),
    "metric-dA-0.7": (
        dict(experiment="metric", space="tree4", metric="dA", A=0.7, n=120), 0,
        {"pairs.csv": "f0d95cc05b28a7ad87e3ae32d06bd3e5caf381ca7920b20d35eadc3d48a85048"}),
    "metric-dbar": (
        dict(experiment="metric", space="tree4", metric="dbar", n=120), 0,
        {"pairs.csv": "bd10200d66c20eb778977b01d36dc7877f1fdd0312bb4c01d10eb1d18c77fea6"}),
    "compare-dA-dA": (
        dict(experiment="compare", space="tree4", metric="dA", A=1.0, metric2="dA",
             A2=2.0, n_triples=2000), 0,
        {"envelope.csv": "b2505126b695beb13b89c7536d82e198d27f1426bb0a6a2d120753c178386ee3",
         "report.json": "2109747405ca76367ff2789a15af691657014627075bea204ab2a79a1768318a"}),
    "compare-dA-dbar": (
        dict(experiment="compare", space="tree4", metric="dA", A=1.0, metric2="dbar",
             n_triples=2000), 2,
        {"envelope.csv": "7b769ce5acc3cf493e02bfb60374bcfbeb995b5ec4cfb76a252db3b4fd3dabef",
         "report.json": "2be3fa6d2314d08fbd8919f49635a6351b0577470a566cdc7a2b34c841af50e7"}),
    "ell-dim": (
        dict(experiment="ell-dim", space="tree4", metric="dbar", n=300, scales=TREE_SCALES), 0,
        {"stats.csv": "21fb7c9795328b2efb639232c8d70a92dc659ce967d9cdbad3d2dc930de9c3b1"}),
    "cover-pushin": (
        dict(experiment="cover-pushin", space="tree4", R=2.0, K=5, window=14.0, n=60,
             n_triples=2000), 0,
        {"claims.json": "cd1159649331ef444a81d6333b7a437921022039d4ec059acccab1f1d8538ea1",
         "cover.json": "26293245b275d521323bbcfda4d061c0d5b881cd5faac65eadb9dac12f0ffce4"}),
    "cover-pushout-euclidean2": (
        dict(experiment="cover-pushout", space="euclidean2", A=1.0, R=2.0, n=120), 0,
        {"cover.json": "b8248048a448540a591880f12e16e9ead67b8438e111694ef2d3c244eba36ab0",
         "stats.csv": "5cf6551c68387ccd681383885f30e01ca019470a2ddbfded1f0c6e014bbd03ea"}),
    "cover-pushout-tree4": (
        dict(experiment="cover-pushout", space="tree4", A=1.0, R=2.0, n=60), 0,
        {"cover.json": "18aa3daaefd7ec331fd02f727671c8deb631cd5cbc91cb1925cddf76880ce1bc",
         "stats.csv": "af2c3f597d88e388d4bd57445f676157b7e04c041d8ec0410c3a728df1f219f6"}),
    "ell-dim-euclidean2": (
        dict(experiment="ell-dim", space="euclidean2", metric="dA", A=1.0, n=400,
             scales=CIRCLE_SCALES), 0,
        {"stats.csv": "71036d96f112a383b9e9158a7e463520386c328f5801452e34fc5111b4bf7094"}),
    "visual-fit-dbar": (
        dict(experiment="visual-fit", space="tree4", metric="dbar", n=300), 0,
        {"visual_fit.json": "c3576636a99560e571b7d3e000fa51cfc6db2c8be8de665aff00e615ba3a6460"}),
    "visual-fit-dA": (
        dict(experiment="visual-fit", space="tree4", metric="dA", A=1.0, n=300), 0,
        {"visual_fit.json": "e94414057525340d6dd17758d0c1c267c0f54375cb9012226c2f2fac659306b8"}),
    "demo-t4": (
        dict(experiment="demo-t4", n=50), 0,
        {"nonqs.csv": "1d1efe8e87a26036027977698338df9ecc404b1cfbe7df00a87ceec3db7f4f05",
         "nonvisual_dA.csv": "2c0b5ad50a373eec26e53f82d3f3c5facf26f80de097ec0d1c1c2f28acae1337",
         "perfectness_witnesses.csv":
             "a27f11654d568467088b9f9119af28a27be6c25c4613c7fe269c95689e523288",
         "visual_fit.json": "6712a68daab53ec76c8c95d8b49336245291615214e64276653b7891bc2a523b"}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_data_files_byte_identical(name, tmp_path):
    fields, want_rc, want_files = GOLDEN[name]
    cfg = RunConfig.from_dict({**fields, "seed": 3, "out": str(tmp_path)})
    assert run(cfg) == want_rc
    got = {}
    for fname in sorted(os.listdir(tmp_path)):
        if fname != "manifest.json":
            with open(tmp_path / fname, "rb") as fh:
                got[fname] = hashlib.sha256(fh.read()).hexdigest()
    assert got == want_files
