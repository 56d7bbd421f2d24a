"""Pinned greedy teleport schedules: sha256 of
``greedy_schedule(g, pi).to_json(graph=g)`` on the benchmark's
full-support instances (random seed 1 and reflection) and on path 64
and grid 8x8 random at budgets 2 and 3, where long cycles take the
chain fallback.

The packer is deterministic, so a change that means to keep every
schedule (cheaper paths, a smarter round filter) must leave these
digests alone.  A digest that moves means the emitted schedule changed;
if that is intended, recompute the digests and say why in the change
log.
"""

import hashlib
import re

import pytest

from teleroute.graphs import generate_graph, generate_permutation
from teleroute.tele_routing import greedy_schedule

# "<family>-<param><value>...[-b<budget>]/<permutation>"
GOLDEN = {
    "path-n64/random":
        "218cb547ab26a392f827059904acc29d71fa68e61153005f23be68f7e93ba6a4",
    "path-n64/reflection":
        "488262251dd6bd08dc0d3eb5426bd9eec76f921472724e8561f1ef12c432a31e",
    "path-n256/random":
        "7e1d6d1c44023d82f1018652828432d36182577f98e6a6d7143aaf93f973f464",
    "path-n256/reflection":
        "ad6ae8a98c36aec0f8163e958f394daa2a6ea14eca7a3fbbe382a9fa1fabc895",
    "path-n384/reflection":
        "c34c1d8f5f910389bf7c85805a6a40b34bb355101936fd9075296f40d855d755",
    "path-n1024/random":
        "1a07008453a15508f45b821054b214747735c20920659be48b383f850310f733",
    "grid-n8-d2/random":
        "02798dd4ace883a8199b784b4056eca7160e8fc747a03cfab938b551d76b6cee",
    "grid-n8-d2/reflection":
        "c7abb242e6bcb1b66c8be2991087cdce9346f4639fd6332ae4310c06c0f760ff",
    "grid-n16-d2/random":
        "63b7bf0e69629e44e7cb06ab5ed9d03cae15015104aa9f323f37d8437c591ab2",
    "grid-n16-d2/reflection":
        "20dd712b85da279c5ede56b76d3516d4a72b8548fa973d24b8eae3079a325216",
    "grid-n32-d2/random":
        "c4aba85512c8f5d887cb23cae8aabcd6452a7247de9e025f2070e831b9903364",
    "hypercube-d6/random":
        "365e40c12049d359e6639604eee0462b7bbd14538f4460f715f39163c9e073b7",
    "hypercube-d6/reflection":
        "eef025c637ead8c6c54dd818d2258e86fee37e5ab00295dfceff0c63c20140dc",
    "hypercube-d8/random":
        "c1d89e69cdd5a3b70797c3e2d59ba88473de82d876bd0136e468cda4a7e82b1b",
    "hypercube-d8/reflection":
        "986c563d5b78c3afc4ea3672cf45ad7ef7c295da258653019d8cf91fa6923100",
    "hypercube-d10/random":
        "2a2079d079c86b23d114790d77a9e65f2715cd0bd7641f1d98736dc29c8c727d",
    "hypercube-d10/reflection":
        "95a3470f47d63e2d4474f233d49efc8e0647d2c37acef4f7bf7f68f3f93a6d6b",
    "butterfly-r4/random":
        "d254ffecbc3dd6ddb950623ff2d950d6d9a17bc38aad2608e0c480a2202d4a05",
    "butterfly-r4/reflection":
        "714ecc974b2ea4980b3575ed12dd511a64daefaf2cc2a026977ad2184872981e",
    "butterfly-r6/random":
        "a12a81b44d5416198eefb22686b96a201447b7c50d814cae95c51e269e6454b0",
    "butterfly-r6/reflection":
        "14a92cdd851605a6c2edbfb9acef0e1d3a3425dbe181e5dc6129ca0d1f776da5",
    "wheel-n63/random":
        "3e4c54122047cbff4cf475b96f827eb8b7cb6ad3fcf29f4233c93184b7c81627",
    "wheel-n63/reflection":
        "5f5d5ab525a0856537ee91f8ea525d4b307b4804fd3721fb910e1cf4e6310b2d",
    "wheel-n255/random":
        "762a3ac5581513a7937561230ca55afb0f0668fa3644ca0e6c3b0fcdb4bad50d",
    "wheel-n255/reflection":
        "79a3b5d175555047f192128da7165c14bd2efb763db162a1677c999d1347e7b7",
    "path-n64-b2/random":
        "c95eb1b34c2491cae45075ea5a0b12f32c8de9142cc5dbe9ad23f522e6f8c035",
    "path-n64-b3/random":
        "153744d4bfd53f08109a51416accea6dedb554fe7590449f73d387acc34533ce",
    "grid-n8-d2-b2/random":
        "7befc261e054fb232f154ebd62d02f496d704051b04161cae77572b6c5e2f8ae",
    "grid-n8-d2-b3/random":
        "4967f7e870fb1bcaec16bd3621066f16569f028d4e9060b07d213d1bb62bd8af",
}


def build(name: str):
    graph, perm = name.split("/")
    family, *fields = graph.split("-")
    params = {}
    budget = 6
    for f in fields:
        key, value = re.fullmatch(r"([a-z])(\d+)", f).groups()
        if key == "b":
            budget = int(value)
        else:
            params[key] = int(value)
    g = generate_graph(family, ancilla_budget=budget, **params)
    seed = {"seed": 1} if perm == "random" else {}
    return g, generate_permutation(perm, g, **seed)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_greedy_schedule_bytes(name):
    g, pi = build(name)
    text = greedy_schedule(g, pi).to_json(graph=g)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]
