"""canonical_form against the permutation search it replaced, and the
census against the loop it replaced.

`permutation_canonical_form` below is that search, kept here as the
reference: it tries every labeling inside each degree-refinement class and
keeps the smallest sorted edge tuple.  The pruned row-by-row search must
return the same key on every graph the census builds, and on every
one-vertex extension of the census up to order 6, whether the census
labels it or not; on larger symmetric graphs, where the reference would
take hours, the new function is checked for relabeling invariance alone.
`all_masks_census` holds the census loop that labeled every extension,
from before the minimum-degree filter.  The `_label` table, which looks a
graph up by its degree form before labeling it, must return one Graph per
class, whose edges are what canonical_form returns.
"""

import random
from itertools import permutations

from rdnum import (
    Graph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    petersen_graph,
)
from rdnum.graphs import mask_vertices, normalize_edge
from rdnum.survey import _all_graphs, _degree_form, _label, canonical_form

from test_bipartitions import generalized_petersen


def permutation_canonical_form(g: Graph) -> tuple[int, tuple]:
    """A label-independent key: the smallest edge tuple over vertex
    relabelings compatible with iterated degree-signature classes."""
    sig = list(g.degrees)
    for _ in range(3):
        keys = [
            (sig[v], tuple(sorted(sig[w] for w in g.neighbors(v))))
            for v in range(g.n)
        ]
        rank = {kk: i for i, kk in enumerate(sorted(set(keys)))}
        sig = [rank[keys[v]] for v in range(g.n)]
    classes: dict[int, list[int]] = {}
    for v in range(g.n):
        classes.setdefault(sig[v], []).append(v)
    groups = [classes[s] for s in sorted(classes)]

    best = None

    def assign(idx: int, label: dict[int, int]) -> None:
        nonlocal best
        if idx == len(groups):
            edges = tuple(
                sorted(normalize_edge(label[a], label[b]) for a, b in g.edges)
            )
            if best is None or edges < best:
                best = edges
            return
        base = sum(len(groups[i]) for i in range(idx))
        for perm in permutations(groups[idx]):
            for offset, old in enumerate(perm):
                label[old] = base + offset
            assign(idx + 1, label)

    assign(0, {})
    return (g.n, best)


_ALL_MASKS: dict[int, tuple[Graph, ...]] = {}


def all_masks_census(n: int) -> tuple[Graph, ...]:
    """`_all_graphs` before the minimum-degree filter, its loop kept
    verbatim: it labels every one-vertex extension of every graph of order
    n - 1."""
    if n in _ALL_MASKS:
        return _ALL_MASKS[n]
    if n == 1:
        out = (Graph.from_edges(1, []),)
    else:
        seen: dict[tuple, Graph] = {}
        for g in all_masks_census(n - 1):
            for mask in range(1 << (n - 1)):
                edges = list(g.edges)
                edges.extend((v, n - 1) for v in mask_vertices(mask))
                cand = Graph.from_edges(n, edges)
                key = canonical_form(cand)
                if key not in seen:
                    seen[key] = Graph.from_edges(n, key[1])
        out = tuple(seen[k] for k in sorted(seen))
    _ALL_MASKS[n] = out
    return out


def relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_same_keys_on_the_census_and_its_relabelings():
    rng = random.Random(5)
    checked = 0
    for k in range(1, 8):
        for g in _all_graphs(k):
            for h in (g, relabeled(g, rng), relabeled(g, rng)):
                assert canonical_form(h) == permutation_canonical_form(h), h
                checked += 1
    assert checked == 3 * (1 + 2 + 4 + 11 + 34 + 156 + 1044)


def test_census_matches_the_all_masks_loop():
    for n in range(1, 8):
        assert _all_graphs(n) == all_masks_census(n), n


def test_order_eight_census_counts():
    # OEIS A000088 and A001349: an independent check, one order past the
    # census cap, that the minimum-degree filter loses no class and that
    # canonical_form neither splits nor merges classes
    graphs = _all_graphs(8)
    assert len(graphs) == 12_346
    assert sum(g.is_connected() for g in graphs) == 11_117


def test_relabeling_invariance_on_an_order_eight_sample():
    # every regular graph of order 8 and a seeded sample of the others,
    # from the census the count test above builds (kept per order)
    graphs = _all_graphs(8)
    regular = [g for g in graphs if len(set(g.degrees)) == 1]
    assert len(regular) == 22  # 1, 1, 3, 6, 6, 3, 1, 1 of degree 0..7
    rng = random.Random(8)
    others = rng.sample([g for g in graphs if len(set(g.degrees)) > 1], 60)
    for g in regular + others:
        key = canonical_form(g)
        assert key == (8, g.edges), g
        for _ in range(2):
            assert canonical_form(relabeled(g, rng)) == key, g


def test_label_table_matches_canonical_form():
    # the degree-form lookup against canonical_form itself, on the census
    # 1..7 and two relabelings of each graph fed in a shuffled order; the
    # census comes from the loop that labels without the table, which
    # test_census_matches_the_all_masks_loop finds equal to _all_graphs
    rng = random.Random(14)
    inputs = []
    for k in range(1, 8):
        for g in all_masks_census(k):
            inputs += [g, relabeled(g, rng), relabeled(g, rng)]
    rng.shuffle(inputs)
    table: dict = {}
    first: dict = {}
    hits = 0
    for h in inputs:
        hits += _degree_form(h) in table
        rep = _label(table, h)
        key = canonical_form(h)
        assert (rep.n, rep.edges) == key, h
        assert first.setdefault(key, rep) is rep, h  # one Graph per class
    assert 0 < hits < len(inputs)


def test_same_keys_on_every_one_vertex_extension():
    checked = 0
    for n in range(2, 7):
        for g in _all_graphs(n - 1):
            for mask in range(1 << (n - 1)):
                edges = list(g.edges)
                edges += [(v, n - 1) for v in mask_vertices(mask)]
                h = Graph.from_edges(n, edges)
                assert canonical_form(h) == permutation_canonical_form(h), h
                checked += 1
    assert checked == 2 + 8 + 32 + 176 + 1088


def test_relabeling_invariance_on_large_symmetric_graphs():
    graphs = [petersen_graph(), complete_graph(12), cycle_graph(20)]
    graphs += [complete_multipartite([4, 4, 4])]
    graphs += [generalized_petersen(n, 2) for n in range(6, 10)]
    rng = random.Random(11)
    for g in graphs:
        key = canonical_form(g)
        assert sorted(Graph(*key).degrees) == sorted(g.degrees)
        assert canonical_form(Graph(*key)) == key
        for _ in range(3):
            assert canonical_form(relabeled(g, rng)) == key, g
