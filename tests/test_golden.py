"""Pinned report bytes: the SHA-256 of the JSON report of a fixed set of jobs.

A change to the engine that keeps every table and check the same keeps these
digests; any change to a single report byte fails the matching case.
"""

import hashlib

import pytest

from lochom.cli import _document_to_jobspec, emit_report, run

RING = {"char": 32003, "vars": ["x", "y"], "weights": [1, 1]}
RING_W = {"char": 32003, "vars": ["x", "y", "z"], "weights": [1, 2, 3]}
QUOTIENT = {"target_twists": [0], "relations": [["x^2", "x*y"]]}
TWO_TERM = {
    "terms": {"0": {"twists": [0]}, "1": {"twists": [-1]}},
    "differentials": {"1": [["x"]]},
}

JOBS = {
    "lc-quotient": {
        "command": "lc", "ring": RING, "module": QUOTIENT,
        "i_range": [0, 2], "window": [-6, 2], "k_max": 8,
    },
    "lc-complex": {
        "command": "lc", "ring": RING, "ideal": ["x", "y"], "complex": TWO_TERM,
        "i_range": [0, 2], "window": [-3, 1],
    },
    "lh-weighted": {
        "command": "lh", "ring": RING_W,
        "module": {"target_twists": [0], "relations": [["y^2 - x^4"]]},
        "i_range": [0, 2], "window": [-2, 8], "k_max": 6,
    },
    "homsc-module": {
        "command": "homsc", "ring": RING, "module": QUOTIENT,
        "i_range": [0, 2], "window": [-2, 4], "K_max": 3,
    },
    "homsc-complex": {
        "command": "homsc", "ring": RING, "complex": TWO_TERM,
        "i_range": [-1, 2], "window": [-2, 3], "K_max": 3,
    },
    "koszul": {
        "command": "koszul", "ring": RING, "module": QUOTIENT, "ideal": ["x", "x*y"],
        "power": 2, "window": [-2, 6],
    },
    "hilbert": {"command": "hilbert", "ring": RING_W, "module": QUOTIENT, "window": [-1, 8]},
    "verify-selfdual": {"command": "verify", "verify": "selfdual"},
    "verify-gm": {"command": "verify", "verify": "gm"},
    "verify-duality": {"command": "verify", "verify": "duality"},
    "verify-corpus": {"command": "verify", "verify": "corpus"},
}
# the same jobs over Q, the rational elimination path
JOBS["lc-quotient-qq"] = dict(JOBS["lc-quotient"], ring=dict(RING, char=0))
JOBS["lh-weighted-qq"] = dict(JOBS["lh-weighted"], ring=dict(RING_W, char=0))
# Koszul stages on three generators, nonlinear or of mixed weights
JOBS["lc-nonlinear-ideal"] = {
    "command": "lc", "ring": {"char": 32003, "vars": ["x", "y", "z"], "weights": [1, 1, 1]},
    "module": {"target_twists": [0], "relations": [["x*z", "y^2"]]},
    "ideal": ["x^2", "x*y - z^2", "y*z"], "i_range": [0, 3], "window": [-4, 2], "k_max": 4,
}
JOBS["lh-weighted-ideal-qq"] = {
    "command": "lh", "ring": {"char": 0, "vars": ["x", "y", "z"], "weights": [2, 1, 3]},
    "module": {"target_twists": [0], "relations": [["x*z - y^5"]]},
    "ideal": ["y^2", "x", "z"], "i_range": [0, 3], "window": [-1, 6], "k_max": 5,
}
# k[x,y,z]/(two dense quadrics): its strands of degree 6 and up are read off
# the strands below them once those are cached, as in a hilbert row
RING_3 = {"char": 32003, "vars": ["x", "y", "z"], "weights": [1, 1, 1]}
DENSE_QUADRICS = {"target_twists": [0], "relations": [[
    "x^2 + 2*x*y + 3*y^2 + 5*x*z + 7*y*z + 11*z^2",
    "13*x^2 + 17*x*y + 19*y^2 + 23*x*z + 29*y*z + 31*z^2",
]]}
JOBS["lc-dense-quadrics"] = {
    "command": "lc", "ring": RING_3, "module": DENSE_QUADRICS,
    "i_range": [0, 3], "window": [-4, 2], "k_max": 6,
}
JOBS["lc-dense-quadrics-qq"] = dict(JOBS["lc-dense-quadrics"], ring=dict(RING_3, char=0))
JOBS["hilbert-dense-quadrics"] = {
    "command": "hilbert", "ring": RING_3, "module": DENSE_QUADRICS, "window": [0, 30],
}
# inverse towers over weights 1, 2, 3 modulo a degree-6 form (the lh-towers-fp
# shape): long top isomorphism runs, and unstabilized cells at the top degrees
JOBS["lh-towers-weighted"] = {
    "command": "lh", "ring": RING_W,
    "module": {"target_twists": [0], "relations": [[
        "3*x^6 + 2*x^4*y - x^3*z + 5*x^2*y^2 - 7*x*y*z + y^3 + 4*z^2",
    ]]},
    "ideal": ["x", "y", "z"], "i_range": [0, 3], "window": [-2, 14], "k_max": 14,
}
# an ideal that is not primary to the irrelevant ideal: towers whose top
# transitions are not isomorphisms, so cells stop early or stay unstabilized
# (the lh cells then take the rank of a composite into a trusted level)
RING_XY = {"char": 32003, "vars": ["x", "y"], "weights": [1, 1]}
JOBS["lc-unstable-tops"] = {
    "command": "lc", "ring": RING_XY,
    "module": {"target_twists": [0], "relations": [["x^2*y"]]},
    "ideal": ["x"], "i_range": [0, 2], "window": [-4, 2], "k_max": 5,
}
JOBS["lh-unstable-tops"] = dict(JOBS["lc-unstable-tops"], command="lh", window=[-1, 5], k_max=6)
# small primes, where a product of two residues is tiny: the Stanley-Reisner
# ring of two disjoint edges, whose strands pass 4096 entries
RING_4 = {"vars": ["a", "b", "c", "d"], "weights": [1, 1, 1, 1]}
JOBS["lc-two-edges-gf3"] = {
    "command": "lc", "ring": dict(RING_4, char=3),
    "module": {"target_twists": [0], "relations": [["a*c", "a*d", "b*c", "b*d"]]},
    "i_range": [0, 2], "window": [-3, 0], "k_max": 6,
}
JOBS["lc-two-edges-gf2"] = dict(JOBS["lc-two-edges-gf3"], ring=dict(RING_4, char=2))
# the baseline lc job, k[x,y,z]/(x^2, xy), over F_32003 and Q
JOBS["lc-baseline"] = {
    "command": "lc", "ring": RING_3, "module": QUOTIENT,
    "i_range": [0, 3], "window": [-8, 2], "k_max": 8,
}
JOBS["lc-baseline-qq"] = dict(JOBS["lc-baseline"], ring=dict(RING_3, char=0))
# the benchmark's seed-1 jobs, as ``bench/workloads.job_document(name, 1)`` gives them
JOBS["bench-lc-dense-fp"] = {
    "command": "lc", "ring": RING_3,
    "module": {"target_twists": [0], "relations": [[
        "-9*x^2 - 4*x*y + 2*x*z + 3*y^2 - 5*y*z - 8*z^2",
        "x^2 + 4*x*y + 7*x*z - 6*y^2 - 8*y*z - 5*z^2",
    ]]},
    "ideal": ["x", "y", "z"], "i_range": [0, 3], "window": [-8, 2], "k_max": 8, "s": 2,
    "report": "json",
}
JOBS["bench-lh-towers-fp"] = {
    "command": "lh", "ring": RING_W,
    "module": {"target_twists": [0], "relations": [[
        "7*x^6 + 8*x^4*y - 9*x^3*z + 4*x^2*y^2 - 9*x*y*z + 3*y^3 + 5*z^2",
    ]]},
    "ideal": ["x", "y", "z"], "i_range": [0, 3], "window": [-2, 14], "k_max": 14, "s": 2,
    "report": "json",
}

# the free complex K(x, y), a complex with a term of rank 2
KOSZUL_XY = {
    "terms": {"0": {"twists": [0]}, "1": {"twists": [-1, -1]}, "2": {"twists": [-2]}},
    "differentials": {"1": [["x", "y"]], "2": [["-y"], ["x"]]},
}
# stable Cech complexes on an odd number of generators, and over a complex
# with a term of rank 2
JOBS["homsc-three-gens"] = {
    "command": "homsc", "ring": RING_3, "module": QUOTIENT,
    "i_range": [0, 3], "window": [-2, 3], "K_max": 3,
}
JOBS["homsc-one-gen"] = {
    "command": "homsc", "ring": RING, "module": QUOTIENT, "ideal": ["x"],
    "i_range": [0, 1], "window": [-2, 3], "K_max": 4,
}
JOBS["homsc-complex-rank2"] = {
    "command": "homsc", "ring": RING, "complex": KOSZUL_XY,
    "i_range": [-2, 2], "window": [-3, 3], "K_max": 3,
}
JOBS["lc-complex-rank2"] = {
    "command": "lc", "ring": RING, "complex": KOSZUL_XY,
    "i_range": [0, 2], "window": [-3, 1], "k_max": 6,
}

DIGESTS = {
    "bench-lc-dense-fp": "ec5b5f5d4fea90d558f0403b27ea936bb5415db244bbca33a87eecf43cc57ed6",
    "bench-lh-towers-fp": "9eca9c4ca7293f663d53ff604c02a7c6b99a3b4525056e8e658d37a550f3f6dc",
    "hilbert": "82abe7e8ac64d1ebaca79d0ef0295a397554de26ad782d179a69c5b0197d3584",
    "hilbert-dense-quadrics": "4b27c149d77c2eb5b282da49fe7fa2c8ec8617af07acf43e4f77ec5304c810ba",
    "homsc-complex": "50b43bddb7118a59ad6db7ae53d41d3fcfc76ec65c01b029de571550edd8599f",
    "homsc-complex-rank2": "f26ede7648e953636f292122b8bd1c3c5aa6f3225f7c94eab530c890b9bcbb36",
    "homsc-module": "9706af23ded941e7f4be755a457286c08ca5c2ecd72ab0c8b8a50379e030b732",
    "homsc-one-gen": "e2913831d6654ae9287d14a4211e818f1e5bf7425f7547e25d57590265c26f19",
    "homsc-three-gens": "c4b1a0c5f5cfa2a3f8a3a93b27dd894a0f8791adc1e044d87f541cd24d92ca42",
    "koszul": "8a48d02886f0822056ad888e0c164b9d3e6fdb4499e285f234956680d4105067",
    "lc-baseline": "840bb9ecf7e7a0ec12b97bf1730a845a32caeacb7993f47935e9e0cb03254a8d",
    "lc-baseline-qq": "8a57af9caa6714e7dbb64d2984ab34001dbe5e0683ba267dab81099e2049ed31",
    "lc-complex": "070edac12473ac5b39cddc345667783f38a5e35cd5d85770ec09361bc1bef115",
    "lc-complex-rank2": "153c72ae0c4d7e04d19c238a70d5ca5088f9421ee80ea832e6588dd532998147",
    "lc-dense-quadrics": "8ae62b35d64a29c0239afd172660c2bfeeba65938eae09863296f7b977eeb293",
    "lc-dense-quadrics-qq": "d2d433b6f726a02f2d518933888f475cf04793d003216ce8c7495c9ea5bf3a0f",
    "lc-nonlinear-ideal": "c369a158c58fc37602917631a84ba20b6221d2e24e65e886bf67d1bc5e450274",
    "lc-quotient": "d03079c5e7e9f44feae20f7847c4cf3e07bcf2702254400272767d20cd30e772",
    "lc-quotient-qq": "5a65c6c6c516471054b2c41d4ce29724c6140e36ae176674df49f50aaf3b0c11",
    "lc-two-edges-gf2": "3aa928ef2902285542dcaf13372c261a510bc2858e6ef4a685f08ba9a5fb6545",
    "lc-two-edges-gf3": "bc823d311a34599979d488ff969c54544f8c2fb96dee596fbf2c44cc5d350f6b",
    "lc-unstable-tops": "ecb6b02427cef0420d15612ae4223914e0b85ea168371307ed6d269728484880",
    "lh-towers-weighted": "9eca9c4ca7293f663d53ff604c02a7c6b99a3b4525056e8e658d37a550f3f6dc",
    "lh-unstable-tops": "27a3fdeddeae52f2916f0e4a6c4050805779aa7374bd6858ed1384638ea4c567",
    "lh-weighted": "9adde9172860fbd83c5ea1b22ddce3fcdae2abc046bfcd5ebeacdbfbd90553ee",
    "lh-weighted-ideal-qq": "56eb2b636a20f8423b3ab3eacf529cc3e0ea8ade341e1091a6da9003ee11c891",
    "lh-weighted-qq": "274133ee79bb89e9172c0a0c23995b4501a685c998d23aeaffa8f7569be901bb",
    "verify-corpus": "d7af8ac9461d12c6f498675d631cf7091b7aa9ddd1a34694fc4a68993b34259c",
    "verify-duality": "d13252483d0630b3ad50753652ade2c6553f52e84f9dda9bbd7803b58c71095f",
    "verify-gm": "2bf4930f808ede7d0b0ec8ae46f09c3ea43523be41f9fa9c1d33cfea531f865a",
    "verify-selfdual": "2828b247b1b15836d1ba4de7fe0b7b88ee6d6cfd16fd396f252c423d4089122e",
}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_report_bytes_are_pinned(name):
    text = emit_report(run(_document_to_jobspec(JOBS[name])), "json")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[name]
