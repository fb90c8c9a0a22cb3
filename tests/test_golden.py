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
}
# the same jobs over Q, the rational elimination path
JOBS["lc-quotient-qq"] = dict(JOBS["lc-quotient"], ring=dict(RING, char=0))
JOBS["lh-weighted-qq"] = dict(JOBS["lh-weighted"], ring=dict(RING_W, char=0))

DIGESTS = {
    "hilbert": "82abe7e8ac64d1ebaca79d0ef0295a397554de26ad782d179a69c5b0197d3584",
    "homsc-complex": "50b43bddb7118a59ad6db7ae53d41d3fcfc76ec65c01b029de571550edd8599f",
    "homsc-module": "9706af23ded941e7f4be755a457286c08ca5c2ecd72ab0c8b8a50379e030b732",
    "koszul": "8a48d02886f0822056ad888e0c164b9d3e6fdb4499e285f234956680d4105067",
    "lc-complex": "070edac12473ac5b39cddc345667783f38a5e35cd5d85770ec09361bc1bef115",
    "lc-quotient": "d03079c5e7e9f44feae20f7847c4cf3e07bcf2702254400272767d20cd30e772",
    "lc-quotient-qq": "5a65c6c6c516471054b2c41d4ce29724c6140e36ae176674df49f50aaf3b0c11",
    "lh-weighted": "9adde9172860fbd83c5ea1b22ddce3fcdae2abc046bfcd5ebeacdbfbd90553ee",
    "lh-weighted-qq": "274133ee79bb89e9172c0a0c23995b4501a685c998d23aeaffa8f7569be901bb",
    "verify-duality": "d13252483d0630b3ad50753652ade2c6553f52e84f9dda9bbd7803b58c71095f",
    "verify-gm": "2bf4930f808ede7d0b0ec8ae46f09c3ea43523be41f9fa9c1d33cfea531f865a",
    "verify-selfdual": "2828b247b1b15836d1ba4de7fe0b7b88ee6d6cfd16fd396f252c423d4089122e",
}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_report_bytes_are_pinned(name):
    text = emit_report(run(_document_to_jobspec(JOBS[name])), "json")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[name]
