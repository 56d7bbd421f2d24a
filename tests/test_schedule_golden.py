"""Pinned schedule bytes: sha256 of ``Schedule.to_json`` for the sparse
router and the generic swap router on fixed instances (spanning-tree
fallbacks, grid and hypercube products, paths, and random trees, up to
the 258,559 swaps of path 1024 random), and for the sparse router on
the benchmark's seed-1 sparse instances, whose gathers run hundreds of
train join and cluster merge rounds.

The routers are deterministic, so a change that means to keep every
schedule (a faster traversal, a shared helper) must leave these digests
alone.  A digest that moves means the emitted schedule changed; if that
is intended, recompute the digests and say why in the change log.
"""

import hashlib
import random

import pytest

from teleroute.graphs import (
    ArchGraph,
    Permutation,
    generate_graph,
    generate_permutation,
)
from teleroute.sparse_routing import sparse_route
from teleroute.swap_routing import route_generic

SPARSE_GRAPHS = {
    "path-128": ("path", {"n": 128}),
    "grid-16x16": ("grid", {"n": 16, "d": 2}),
    "hypercube-8": ("hypercube", {"d": 8}),
    "butterfly-5": ("butterfly", {"r": 5}),
    "wheel-63": ("wheel", {"n": 63}),
    "ladder-6": ("ladder", {"n": 6}),
}

SPARSE_PERMS = ("k2", "k8", "k32", "diam")

# the benchmark's sparse workload at seed 1: hundreds of join and merge
# rounds of the gather, each instance with the kinds it routes there
BENCH_SPARSE_GRAPHS = {
    "path-1024": ("path", {"n": 1024}, ("k8",)),
    "path-256": ("path", {"n": 256}, ("k2", "k32", "diam")),
    "grid-32x32": ("grid", {"n": 32, "d": 2}, ("k8",)),
    "hypercube-10": ("hypercube", {"d": 10}, ("k8",)),
    "butterfly-7": ("butterfly", {"r": 7}, ("k8",)),
    "wheel-1023": ("wheel", {"n": 1023}, ("k8", "diam")),
    "wheel-255": ("wheel", {"n": 255}, ("k32",)),
    "ladder-8": ("ladder", {"n": 8}, ("k2", "k32", "diam")),
}

GENERIC_GRAPHS = {
    "butterfly-3": ("butterfly", {"r": 3}),
    "butterfly-4": ("butterfly", {"r": 4}),
    "grid-8x8": ("grid", {"n": 8, "d": 2}),
    "grid-16x16": ("grid", {"n": 16, "d": 2}),
    "grid-4x4x4": ("grid", {"n": 4, "d": 3}),
    "hypercube-6": ("hypercube", {"d": 6}),
    "hypercube-8": ("hypercube", {"d": 8}),
    "wheel-63": ("wheel", {"n": 63}),
    "ladder-6": ("ladder", {"n": 6}),
    "path-2": ("path", {"n": 2}),
    "path-64": ("path", {"n": 64}),
    "path-257": ("path", {"n": 257}),
}

GENERIC_PERMS = ("random", "reflection")

# the larger swap schedules of the benchmark's full workload, each with
# the permutation kinds it routes there
LARGE_GRAPHS = {
    "path-384": ("path", {"n": 384}, ("reflection",)),
    "path-1024": ("path", {"n": 1024}, ("random",)),
    "butterfly-6": ("butterfly", {"r": 6}, ("random", "reflection")),
    "wheel-255": ("wheel", {"n": 255}, ("random", "reflection")),
    "ladder-8": ("ladder", {"n": 8}, ("random", "reflection")),
    "grid-32x32": ("grid", {"n": 32, "d": 2}, ("random",)),
    "hypercube-10": ("hypercube", {"d": 10}, ("random", "reflection")),
}

GOLDEN = {
    "sparse/butterfly-5/k2":
        "dfa5cddc39c7b8fb4605acec5626d8c3cb052cd7466cc6df9bc0c44bcdfa2b1d",
    "sparse/butterfly-5/k8":
        "f82ce422716db99dc3b724f40d0b5a7aaa41e1ba1edba8161fd9a5c16582be75",
    "sparse/butterfly-5/k32":
        "30c99f46eb594db455c1c0fa14a18a8440d3ade65d51dea308037ee034ffea4f",
    "sparse/butterfly-5/diam":
        "7c3f05eb95d3704c859940fdb5b293fe4e798f3b7c06baa9b4d482315c806a77",
    "sparse/grid-16x16/k2":
        "03a0296323c9383f0da377d6edca7245406532341f68bc72712c6879ad5bc0c4",
    "sparse/grid-16x16/k8":
        "72798d0cc454c66c75bf4a9c4637552d096b3fa7e84a1a1153678a4fec9141ac",
    "sparse/grid-16x16/k32":
        "af25b749e3165344329cd5ab41f7ac634148371da3e82ef97d9147d56aec3a14",
    "sparse/grid-16x16/diam":
        "eaaaceb70c87bd6b30f9ec2739e9e8f4b62ec86e13e1c7897e8a6a6f217b8ca8",
    "sparse/hypercube-8/k2":
        "04fe2d8b580b7d07c6e87db26a5b6e2160e5e6e36cd989f3f675c6e9c302e88d",
    "sparse/hypercube-8/k8":
        "f2dcdb68f04c4a487d44330fc66db58a04a94804767f9569a9f5624a019164fe",
    "sparse/hypercube-8/k32":
        "7875bcf2efa7749c0a96b879d45b2e73547a6de6c28645699936f5c1b4bd1b88",
    "sparse/hypercube-8/diam":
        "6086b68a270cac24abcf7188ab052c0f3af8c25095d6ae5b30813e9c2212af55",
    "sparse/ladder-6/k2":
        "151b3cd7b982f0a638ee3f4603613bb8db88f17c3e145478ac31854aa67391cd",
    "sparse/ladder-6/k8":
        "276e5e42302b1a69663e5dffbdf0ec432255488ee2093e620ae5bae8e8d359fd",
    "sparse/ladder-6/k32":
        "f975babc6309153a7cc65635a62880c4dae561e7b6cc5b2a07c3c26261430f7f",
    "sparse/ladder-6/diam":
        "272a8a2b489693f8369fe52ca548155d1a3b5e38b0127b0a92bc2e981a4eccda",
    "sparse/path-128/k2":
        "6378ce9bcab6c141cf37dd584a3752adf46a228cfd5bfd08857dfb697e2f15c4",
    "sparse/path-128/k8":
        "1113cbb601e37fc7db17eeb989937a5f25a67e6677655ea0a5acab72cb556c83",
    "sparse/path-128/k32":
        "5d72143dfb4ced41e1fafb9135e6caf60d7e7836cf6f4b8c5f83164d72cbb119",
    "sparse/path-128/diam":
        "b0ed171969d6e93a702f0b0491f6a192d9f4a32a465f0add479415f9d663aed4",
    "sparse/wheel-63/k2":
        "c93610cba5c845e7076538e37a83b26d40bb321f735495fea828f3a230e41998",
    "sparse/wheel-63/k8":
        "94e92e4e552ab097e6eb0d1f95f65572b3e1a335b2b2376574e570418d87df03",
    "sparse/wheel-63/k32":
        "af06b35a4acd727fa96489790348283c05fb3d9d38c23cc63ab4beffec1d42c1",
    "sparse/wheel-63/diam":
        "c686b1ebf64be0335f0d5f41328b0b1fcb8f853d5401837cbd32a4a4dd078fff",
    "sparse-bench/path-1024/k8":
        "d05ab40fb2eabdfb0d3a23c19d23c3469b9a3401518f8202ea596ecdde24f4ce",
    "sparse-bench/path-256/k2":
        "6593c7ad006888df58bb26c95efdabd472c08f053cc7a1c2c81e6a8c8ab1cd36",
    "sparse-bench/path-256/k32":
        "698ff2d83406aca7bdccccd72e95effd8d7452b5d1b6cad047066ab9e3149de1",
    "sparse-bench/path-256/diam":
        "d4cb0b513ce76cf1c025e2a504cbbdf196a67c56d120d9f2bed106cf8a515687",
    "sparse-bench/grid-32x32/k8":
        "6ca1b3b3ffa96314fb55c12d0d7e741b6b06a6b21b5f3bb8fa1f2c5b33573d84",
    "sparse-bench/hypercube-10/k8":
        "97ea4fe26e8a3efdb5ed3716108347678f59fbaf6ec86774d40ff02c2c7c5f1c",
    "sparse-bench/butterfly-7/k8":
        "02b65bd30c009c80382b9b0c0fc044f45a67f6423aaf898a027681dba8b1692b",
    "sparse-bench/wheel-1023/k8":
        "5828655ab7b845d61acc199faa118cd475155581e47afeacb55eaa01bc0e8d3d",
    "sparse-bench/wheel-1023/diam":
        "ba87854028c6ffcde5a60b15eca3c2ad1bd9e416fb284af328ac57dd09f594bc",
    "sparse-bench/wheel-255/k32":
        "9e4bb4401b0996f263c968d52678250d62b9fcde0e9aa95c8f6f274c845d4647",
    "sparse-bench/ladder-8/k2":
        "72fb4248c248524a27dca0851d860e2d13ba7960ebbe0a6d7d319426d493f5d0",
    "sparse-bench/ladder-8/k32":
        "22b249b743babdb654e046ba75f71a1e1778f4b3628185a6789eecd6033c90ae",
    "sparse-bench/ladder-8/diam":
        "5b3bd99585ea8ad64de8bebb870a70cac1f42d3ee109c830097ba13aff0a5636",
    "generic/butterfly-3/random":
        "1ab39f22b9826c6d95100bf5406466316b494be5bb9e4f389c85283ba276931d",
    "generic/butterfly-3/reflection":
        "5cf244fb5abc42bd5c9db463838158712336e1dc5aa97861ef76ff8061396a79",
    "generic/butterfly-4/random":
        "0ad6036d8e1729e438233845124689e1813c7b122d6c5b73e4b9907b77989ad4",
    "generic/butterfly-4/reflection":
        "0b48d20948642acc60ed4fd1c02a3e9c520fe224ac0423e7cb5725ffc1f73ebb",
    "generic/grid-16x16/random":
        "4d60a22b070dbec5d3058133cf255cd03f116c0a95c8ebac49c9bf229ace8dd9",
    "generic/grid-16x16/reflection":
        "8bea1706cd202a52595c3e9ce75676282d381217b2449604a8cb6489dfaaa9fc",
    "generic/grid-4x4x4/random":
        "540030193e4e421adf017791133b5fa6101cb4403b41a7e47c2528d5a6fbb403",
    "generic/grid-4x4x4/reflection":
        "9aa63093a57346ff1c609de1117df75aee5d793008b6a460d4da1cb87e897e74",
    "generic/grid-8x8/random":
        "c1abbe439c47bb37e49a002c257b0fc404c0d0d80a734bc0e9116c6c47d21889",
    "generic/grid-8x8/reflection":
        "7e35467d4dec3f2c1cce4645e9e56fdf46feb03d3460190755ce4db33522ba81",
    "generic/hypercube-6/random":
        "2853af05ba01ad84f3ab5565dadce3e8ce74ea9e2132bbf03ca4677a91ebf03b",
    "generic/hypercube-6/reflection":
        "08b70a44f5e6c2e4034837bfa2416a324f92247b73aa1e58136a597067dca271",
    "generic/hypercube-8/random":
        "688ed1de0e22d6f263f7aa97e6bdda90c6a6e160f1c50724d4df3648bf131727",
    "generic/hypercube-8/reflection":
        "df6ffd6991348b007446ac8935be5bbf67b263a0253fbad392f5fb45891c26e0",
    "generic/ladder-6/random":
        "23427cc24e3e1b9ad17b1b983b1141ffb4ce396d68e71c7e8f3a0b868ee19018",
    "generic/ladder-6/reflection":
        "87dfc42f8177243e6086d593861e7d2ca241d4c9229976ad371e78fbbdad82be",
    "generic/path-2/random":
        "da8108cc4df09c99a017b3c405ac52db38eaa07f99f1f9065f3b7448fb1b5c92",
    "generic/path-2/reflection":
        "da8108cc4df09c99a017b3c405ac52db38eaa07f99f1f9065f3b7448fb1b5c92",
    "generic/path-64/random":
        "06efd1e7a7b7c0d38375c819c306ef93afacfe87936c8c6ae6d194ca7ccc68b3",
    "generic/path-64/reflection":
        "d7414f283cba47bcde2f37564316a84a4e6c626900847ea3a1e6ba3c0735bb0b",
    "generic/path-257/random":
        "4c018fb2aad4d0d962f5ed4abb51db856c32f3a2a1af8e65b95e870250aa40e0",
    "generic/path-257/reflection":
        "50f9039ff81219d1451ae7465607f5cc50b9bccd279ac46f605ddf7647254eb4",
    "generic/wheel-63/random":
        "791ef98d49a8eae072d74b8a67037d7f3da908fca3b4bda5ae06a7d6bed7b7f0",
    "generic/wheel-63/reflection":
        "ea6cb37748cd93aa44b166cd14c205b4dde496a28e9dcbcfd1625387020c7faf",
    "generic/path-384/reflection":
        "111a67ab77e676289f25b075eebd5afc603885d63294e19e113dae3e944fe072",
    "generic/path-1024/random":
        "206469cc8a910cd60c8ab17d04f673c49daa3d69dd629f9e48d7a41e3889b23c",
    "generic/butterfly-6/random":
        "74c66c0af887fcd0a2a94af2447844638d5200651e7874cff4f7d5bf4b165fec",
    "generic/butterfly-6/reflection":
        "4fa4c2f3fbe4e18070f18a04c3df10639f3659b17180e5be1e5a7b1de07fd68a",
    "generic/wheel-255/random":
        "9abacabdc8dfb1f1cfd325ba3f63363eb8a35a45024ce48c55d5aab6af99c9cc",
    "generic/wheel-255/reflection":
        "4030a4ee20e26d3382b4da9fa186f6047c525ea4a1bffb2b2810aec4ca48101b",
    "generic/ladder-8/random":
        "3a0549ed6c5643e09c5c8df09170852c0ba9ef92bf189af353c1d0bc72a63dd7",
    "generic/ladder-8/reflection":
        "57556de47f45fd2f4e0a5f0ee416353437e0a852728f4a88ba8151d56d51db2d",
    "generic/grid-32x32/random":
        "f47960ea5617145d90bda5134f57f2a30299e05201634c45e194ec1fd43b3071",
    "generic/hypercube-10/random":
        "0239f6c7ac26641b2f703e0465db59bd74dcf49be874a839ea6081f71e8f8507",
    "generic/hypercube-10/reflection":
        "a9741770c7dfa88f2cd5c4f92571d6b24ae46b7fb09b0d9bf22aef9e0d45611c",
}

# one digest over the 50 tree schedules, one to_json per line
TREES_GOLDEN = "515d68fe623b439d7d31eb35ed8de746c829d6b5b2980cc38aed62041b4b1689"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sparse_perm(g: ArchGraph, kind: str) -> Permutation:
    if kind == "diam":
        return generate_permutation("diam", g)
    k = int(kind[1:])
    return generate_permutation("random", g, seed=k, k=k)


def bench_sparse_digest(name: str, kind: str) -> str:
    family, params, _ = BENCH_SPARSE_GRAPHS[name]
    g = generate_graph(family, **params)
    pi = (generate_permutation("diam", g) if kind == "diam" else
          generate_permutation("random", g, seed=1, k=int(kind[1:])))
    return sha(sparse_route(g, pi).to_json())


def generic_perm(g: ArchGraph, kind: str) -> Permutation:
    if kind == "reflection":
        return generate_permutation("reflection", g)
    return generate_permutation("random", g, seed=1)


def random_tree(seed: int) -> tuple[ArchGraph, Permutation]:
    """A random recursive tree on 5..80 vertices with scrambled labels,
    and a uniform permutation."""
    rng = random.Random(seed)
    n = rng.randrange(5, 81)
    label = list(range(n))
    rng.shuffle(label)
    edges = [tuple(sorted((label[rng.randrange(v)], label[v])))
             for v in range(1, n)]
    image = list(range(n))
    rng.shuffle(image)
    return ArchGraph(n, tuple(sorted(edges))), Permutation(tuple(image))


def sparse_digest(name: str, kind: str) -> str:
    family, params = SPARSE_GRAPHS[name]
    g = generate_graph(family, **params)
    return sha(sparse_route(g, sparse_perm(g, kind)).to_json())


def generic_digest(name: str, kind: str) -> str:
    family, params = GENERIC_GRAPHS[name]
    g = generate_graph(family, **params)
    return sha(route_generic(g, generic_perm(g, kind)).to_json())


def large_digest(name: str, kind: str) -> str:
    family, params, _ = LARGE_GRAPHS[name]
    g = generate_graph(family, **params)
    return sha(route_generic(g, generic_perm(g, kind)).to_json())


def trees_digest() -> str:
    lines = []
    for seed in range(50):
        g, pi = random_tree(seed)
        lines.append(route_generic(g, pi).to_json())
    return sha("\n".join(lines))


@pytest.mark.parametrize("name", sorted(SPARSE_GRAPHS))
@pytest.mark.parametrize("kind", SPARSE_PERMS)
def test_sparse_route_bytes(name, kind):
    assert sparse_digest(name, kind) == GOLDEN[f"sparse/{name}/{kind}"]


@pytest.mark.parametrize("name, kind", [
    (name, kind) for name, (_, _, kinds) in BENCH_SPARSE_GRAPHS.items()
    for kind in kinds])
def test_sparse_route_bench_bytes(name, kind):
    assert (bench_sparse_digest(name, kind)
            == GOLDEN[f"sparse-bench/{name}/{kind}"])


@pytest.mark.parametrize("name", sorted(GENERIC_GRAPHS))
@pytest.mark.parametrize("kind", GENERIC_PERMS)
def test_route_generic_bytes(name, kind):
    assert generic_digest(name, kind) == GOLDEN[f"generic/{name}/{kind}"]


@pytest.mark.parametrize("name, kind", [
    (name, kind) for name, (_, _, kinds) in LARGE_GRAPHS.items()
    for kind in kinds])
def test_route_generic_large_bytes(name, kind):
    assert large_digest(name, kind) == GOLDEN[f"generic/{name}/{kind}"]


def test_route_generic_random_trees_bytes():
    assert trees_digest() == TREES_GOLDEN
