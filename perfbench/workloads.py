"""Seeded inputs of the four benchmark workloads, as presentation text.

The library only ever sees the generated `.ug` text.  Each input carries
the family it belongs to and its size parameter, so that the reference
checks know which answers to expect and the per-input rows show growth
in n, k and d.  The seed changes labels, declaration order and the edges
of the random presentations of mixed_small; on skew_verify it changes only
the labels and order of a fixed pool of graphs.  It never changes the size parameters of the
scaling families or the mix of sizes among the random presentations, so
runs on different seeds measure comparable work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

FINITE_CORPUS = ["ef", "one_edge", "single_loop", "two_cycle", "two_range"]
INFINITE_CORPUS = ["ex2", "infinite_range"]

# Size parameters.  `tiny` keeps every family but at its smallest sizes
# and is what the smoke test runs.
SIZES = {
    "full": {
        "random_small": 300,
        "cycle_n": (10, 20, 30, 40, 50, 60),
        "dag_wd": ((2, 4), (3, 4), (3, 5), (3, 6), (3, 7)),
        "clique_k": (3, 4, 5, 6),
        "random_skew": 30,
    },
    "tiny": {
        "random_small": 6,
        "cycle_n": (4, 6),
        "dag_wd": ((2, 2), (2, 3)),
        "clique_k": (3,),
        "random_skew": 3,
    },
}


@dataclass(frozen=True)
class Input:
    name: str
    family: str  # corpus | random | cycle | dag | clique
    size: str  # the size parameter, e.g. "n=40"
    text: str


def _shuffled(rng: random.Random, lines: list[str]) -> list[str]:
    out = list(lines)
    rng.shuffle(out)
    return out


def corpus_inputs(root: Path, names: list[str]) -> list[Input]:
    out = []
    for name in names:
        text = (root / "corpus" / f"{name}.ug").read_text()
        out.append(Input(name, "corpus", "corpus", text))
    return out


def random_text(rng: random.Random, name: str, nv: int, edges: int, sinkless: bool,
                labels: random.Random | None = None) -> str:
    """A random finite ultragraph over one vertex family, with the shape of
    the test suite's random_presentation generator once its vertex count and
    edge-count draw are fixed.  With sinkless=True every vertex emits an
    edge and `edges` counts the extra ones.  If `labels` is given, `rng`
    draws only the graph and `labels` renumbers its vertices and shuffles
    its edges, so the graph is the same up to isomorphism for every
    `labels`."""
    if sinkless:
        sources = list(range(nv)) + [rng.randrange(nv) for _ in range(edges)]
    else:
        sources = [rng.randrange(nv) for _ in range(edges)]
    ranges = [rng.sample(range(nv), rng.randint(1, min(3, nv))) for _ in sources]
    perm = list(range(nv))
    edge_lines = []
    if labels is not None:
        labels.shuffle(perm)
    for i, (src, members) in enumerate(zip(sources, ranges)):
        rng_text = ", ".join(f"v[{perm[j]}]" for j in members)
        edge_lines.append(f"edge e{i} : v[{perm[src]}] -> {{ {rng_text} }}")
    if labels is not None:
        edge_lines = _shuffled(labels, edge_lines)
    return "\n".join([f"ultragraph {name}", f"vertex_family v finite {nv}"] + edge_lines) + "\n"


def random_shapes(count: int, max_vertices: int, max_edges: int, sinkless: bool):
    """(vertices, edge-count draw) pairs covering the generator's choices in
    turn.  The list depends only on its arguments, so every seed gets the
    same mix of sizes and only the edges themselves are random."""
    grid = [
        (nv, k)
        for nv in range(1, max_vertices + 1)
        for k in (range(max_edges - nv + 1) if sinkless else range(1, max_edges + 1))
    ]
    return [grid[(i * 7) % len(grid)] for i in range(count)]


def _vertex_count(text: str) -> str:
    return "v=" + text.split("finite ", 1)[1].split()[0]


def cycle_text(rng: random.Random, n: int) -> str:
    """An n-cycle c[0] -> c[1] -> ... -> c[0] fed by one source vertex.
    Strongly Z-graded; the certificate path runs for every vertex."""
    entry = rng.randrange(n)
    tags = rng.sample(range(10 * n), n)
    edges = [f"edge feed : src -> {{ c[{entry}] }}"]
    edges += [f"edge e{tags[i]} : c[{i}] -> {{ c[{(i + 1) % n}] }}" for i in range(n)]
    head = [f"ultragraph cycle{n}", "vertex src", f"vertex_family c finite {n}"]
    return "\n".join(head + _shuffled(rng, edges)) + "\n"


def dag_text(rng: random.Random, w: int, d: int) -> str:
    """d + 1 layers of w vertices; vertex j of a layer below the last emits
    one edge whose range is {j, j+1 mod w} of the next layer.  Acyclic with
    sources and sinks, so the epsilon-unit certificates run."""
    head = [f"ultragraph dag{w}x{d}"]
    head += [f"vertex_family l{i} finite {w}" for i in range(d + 1)]
    tags = rng.sample(range(10 * w * d), w * d)
    edges = [
        f"edge g{tags[i * w + j]} : l{i}[{j}] -> {{ l{i + 1}[{j}], l{i + 1}[{(j + 1) % w}] }}"
        for i in range(d)
        for j in range(w)
    ]
    return "\n".join(head + _shuffled(rng, edges)) + "\n"


def clique_ray_text(rng: random.Random, k: int) -> str:
    """A source feeding a complete directed graph on k vertices, one of
    which feeds an infinite ray given by an edge family.  Infinite, so the
    bounded semi-decision of the replacement condition runs."""
    entry, exit_ = rng.randrange(k), rng.randrange(k)
    edges = [f"edge feed : src -> {{ q[{entry}] }}", f"edge out : q[{exit_}] -> {{ r[0] }}"]
    edges += [f"edge c{i}_{j} : q[{i}] -> {{ q[{j}] }}" for i in range(k) for j in range(k) if i != j]
    head = [
        f"ultragraph clique{k}",
        "vertex src",
        f"vertex_family q finite {k}",
        "vertex_family r infinite",
    ]
    tail = ["edge_family f[n] (n >= 1) : r[n-1] -> { r[n] }"]
    return "\n".join(head + _shuffled(rng, edges) + tail) + "\n"


def make_inputs(workload: str, seed: int, root: Path, sizes: str = "full") -> list[Input]:
    """The fixed input set of one workload, in the order the runs use:
    scaling families by increasing size, so that a cliff comes last."""
    size = SIZES[sizes]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "mixed_small":
        out = corpus_inputs(root, FINITE_CORPUS + INFINITE_CORPUS)
        half = size["random_small"] // 2
        shapes = [(s, False) for s in random_shapes(half, 6, 8, False)]
        shapes += [(s, True) for s in random_shapes(half, 6, 8, True)]
        for i, ((nv, edges), sinkless) in enumerate(shapes):
            name = f"rnd{i:03d}"
            text = random_text(rng, name, nv, edges, sinkless)
            out.append(Input(name, "random", _vertex_count(text), text))
        return out
    if workload == "finite_families":
        out = [Input(f"cycle{n}", "cycle", f"n={n}", cycle_text(rng, n)) for n in size["cycle_n"]]
        out += [
            Input(f"dag{w}x{d}", "dag", f"w={w},d={d}", dag_text(rng, w, d))
            for w, d in size["dag_wd"]
        ]
        return out
    if workload == "infinite_rays":
        out = corpus_inputs(root, INFINITE_CORPUS)
        return out + [Input(f"clique{k}", "clique", f"k={k}", clique_ray_text(rng, k)) for k in size["clique_k"]]
    if workload == "skew_verify":
        # The cost of a relation check varies with the graph far more than
        # with its size, and a few graphs take most of the time, so the
        # graphs come from a fixed pool and the seed only relabels them.
        pool = random.Random("skew_verify:pool")
        out = corpus_inputs(root, FINITE_CORPUS)
        for i, (nv, edges) in enumerate(random_shapes(size["random_skew"], 4, 5, False)):
            name = f"skw{i:02d}"
            text = random_text(pool, name, nv, edges, False, labels=rng)
            out.append(Input(name, "random", _vertex_count(text), text))
        return out
    raise ValueError(f"unknown workload {workload!r}")
