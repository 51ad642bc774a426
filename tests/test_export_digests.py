"""Pinned SHA-256 digests of whole orbit exports.

The documents are those of the first round of the orbits deck of
`bench/run.py` at seeds 1 and 2, in the formats drawn there; the 96,794-row
float export of a periodic orbit in both formats; and the 98,124-row float
export of an orbit at the flip tangency, which never repeats, also as JSON.
The digests were taken from the renderer that formatted every row's index
cell by cell, before the index was cut into block templates, so a change of
render that changes a byte of these documents fails here.  CI checks the two
96,794-row digests against the installed `ratdyn` console script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shlex

import pytest

from ratdyn import cli

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # sha256(b"")

# command line -> (exit code, sha256 of stdout)
DIGESTS = {
    "simulate --branch plus --p 1 --q 2 --nu 2 --x0=1001/1000 --steps 98124 --plane float":
        (0, "408a1497d0729732795d0a1bee58ffe266d79f346f652294871b2a6ed5a98ee0"),
    "simulate --branch plus --p 3 --q 2 --nu 3 --x0 2 --steps 5":
        (0, "3e0204ebe29cb6bc59422216ac05cbbf534274e97da96c78b9ee77070be37339"),
    "simulate --branch plus --p 3 --q 3 --nu 1 --x0=3 --steps 1977":
        (0, "1f14654fa44ad4b3ec8fe43cc04e7c65783023cbb97cf05d354ff6bdea2d0904"),
    "products --branch minus --p 1 --q 3 --x0=-7/3 --steps 1969":
        (0, "dbac019b332e3d1a3241101c8fdbcb3d86dadd057e78490333866875f3fce458"),
    "simulate --branch plus --p 1 --q 1 --nu 200 --x0 100 --steps 100 --plane float":
        (2, EMPTY),
    "simulate --branch plus --p 1 --q 2 --nu 2 --x0 3 --steps 14":
        (2, EMPTY),
    "forbidden --branch plus --p 3 --q 1 --depth 2027":
        (0, "58ef33aa3f5376139689b60482cd2ab4406189c500757ad776ca5c66a09341d8"),
    "simulate --branch plus --p 3 --q 2 --nu 3 --x0=2 --steps 100298 --plane float --format json":
        (0, "eb75063e034b039a074dbb4d1b066d64e23a921cf60d1dc32d6dadc43466cdc5"),
    "products --branch plus --p 2 --q 1 --x0=9 --steps 2023 --format json":
        (0, "e5e7f9b0809d018502b4204bc0d000d3054cb2600ebbb48a4b9457792a10c3b4"),
    "simulate --branch plus --p 2 --q 2 --nu 2 --x0 3 --steps 10 --format json":
        (0, "47cecd21dd4e46af1229b2a282facdaf3544b84567f7db0fc4aabbcd192e727f"),
    "products --branch minus --p 3 --q 2 --x0=-9 --steps 2137 --format json":
        (0, "5b5f8b809a04398a4d631a4c49fdc1bcb458f46e7e9c20ba4f9551f304aeecab"),
    "simulate --branch plus --p 1 --q 4 --nu 1 --x0=5 --steps 1896 --format json":
        (0, "4c1934a0741d0061540d74b085d770a809cc62bb957f8592fc134ceaf07df46c"),
    "forbidden --branch minus --p 3 --q 2 --depth 2173":
        (0, "e1f655942b8dc46176a55f9afbc28a37c13757f3f24b5221c9c4485452ef9545"),
    "simulate --branch minus --p 1 --q 6 --nu 1 --x0=-3 --steps 2199 --format json":
        (0, "5cff4c245c4be84cb3db196c44fd3901f22fc3053c0eec08b12405053462406f"),
    "forbidden --branch minus --p 1 --q 2 --depth 2169":
        (0, "b608d0fee776c61bc9ecc9ce83b4f4bcab4f761e993f37a849700eeb576d0765"),
    "simulate --branch plus --p 1 --q 6 --nu 1 --x0=7/3 --steps 2182 --format json":
        (0, "c1eac4996bfc619b456fe363638201e687519f9d8334055a1a45cb2dd10a4dcf"),
    "products --branch minus --p 1 --q 3 --x0=-2 --steps 1828":
        (0, "7108f67d1aba15ecddaaea432b07591cab400a6cdcf7abb2f87e5c61fe592633"),
    "forbidden --branch plus --p 2 --q 1 --depth 1985 --format json":
        (0, "e7a9a8f42d4b484eb522af63d34ac5a099c35fd6f8ec54a7b0f0ec0624281e3c"),
    "products --branch plus --p 3 --q 2 --x0=2 --steps 2160 --format json":
        (0, "766d415bf5b94e937f49ebc7c2c920d60f60a88f43f67566202c4070eeb5a5b9"),
    "simulate --branch plus --p 3 --q 1 --nu 1 --x0=3 --steps 1930":
        (0, "dcce1525e0efe7a847327c4ad8878ad93aaaae02e42a5ddd026feabfef466daa"),
    "simulate --branch minus --p 1 --q 2 --nu 3 --x0=-3/2 --steps 104370 --plane float --format json":
        (0, "db33557a62e1fcd50454056667ebd25b516194406e3b13bd6e33f3ef0e2a078c"),
    "simulate --branch plus --p 3 --q 5 --nu 3 --x0 5/2 --steps 6":
        (0, "19435a4b11f2fb2cdf53f6b8313e4e3c69d09c5db27c014dc3c16ffc9b7145ba"),
    "forbidden --branch plus --p 2 --q 2 --depth 1963 --format json":
        (0, "c62c522f708883bf48e569158b364d76c1cb64567f28432c3267464db55f6d7d"),
    "simulate --branch minus --p 2 --q 1 --nu 3 --x0=-2 --steps 102885 --plane float":
        (0, "150d2c4b12c804e4ebaa60c1b2d22afa282382c74dad7291942e85351ff08a96"),
    "simulate --branch plus --p 2 --q 5 --nu 2 --x0 3 --steps 9 --format json":
        (0, "6ddc398b94aa7fe8c1889fc598906604755b19536fbf14a452f7bc0f1ebc1cf3"),
    "products --branch minus --p 1/2 --q 2 --x0=-7/3 --steps 1805 --format json":
        (0, "bd846a69a74b20765ec30873989acf06c06158189dca5d0eb316959dbf38e5bb"),
    "forbidden --branch minus --p 2 --q 2 --depth 1950":
        (0, "6159683bd80bb1dda953b72f46c1c1f0a8c55dc18030bb81c3304b885757a55f"),
    # a periodic float orbit, one 1,000-row template for its whole tail, and
    # the flip tangency's orbit as JSON
    "simulate --branch minus --p 3 --q 2 --nu 1 --x0=-3 --steps 1968":
        (0, "b730b6f3eb9151e6d081fa1ce8cfe6f20bf91f221374b26b367bf17b02d1e15a"),
    "simulate --branch plus --p 1 --q 2 --nu 3 --x0=2 --steps 96794 --plane float":
        (0, "adc83e12929281286c7251fb897aa2122cec322d993ea4f82173bc8fb59afe33"),
    "simulate --branch plus --p 1 --q 2 --nu 3 --x0=2 --steps 96794 --plane float --format json":
        (0, "992b634d205d55d33dffef43db15bca411b3a87cd81de4123f6ec86af69e5147"),
    "simulate --branch plus --p 1 --q 2 --nu 2 --x0=1001/1000 --steps 98124 --plane float --format json":
        (0, "2e140fb89ef03d223519003c44c7a9a7982b68b65b752a5e91d8d5f4e5bb2763"),
}


@pytest.mark.parametrize("line", DIGESTS)
def test_the_export_has_its_pinned_digest(line):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.run(shlex.split(line))
    assert (rc, hashlib.sha256(out.getvalue().encode()).hexdigest()) == DIGESTS[line]
