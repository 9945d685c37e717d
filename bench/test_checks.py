"""Each benchmark checker accepts the program's right answers and rejects a
corrupted one.  Run with: python3 -m pytest bench/test_checks.py -q"""

from __future__ import annotations

import dataclasses
import sys
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import rdnum  # noqa: E402
from rdnum import EdgeColoring  # noqa: E402

import checks  # noqa: E402
from spans import Tracer  # noqa: E402


def small_census():
    return [g for n in range(2, 7) for g in rdnum.enumerate_connected_graphs(n)]


def verdict(ec: EdgeColoring):
    rep = rdnum.verify_rd_coloring(ec)
    return rep.ok, rep.certificates, rep.failing_pair


def test_lambda_plus_matches_max_flow_on_small_census():
    for g in small_census():
        assert checks.lambda_plus(g.n, g.edges) == rdnum.upper_edge_connectivity(g)


def test_small_sides_lists_every_low_crossing_bipartition():
    g = rdnum.petersen_graph()
    want = []
    for side in range(1, 1 << g.n, 2):
        crossing = sum(1 for a, b in g.edges if (side >> a & 1) != (side >> b & 1))
        if side != (1 << g.n) - 1 and crossing <= 4:
            want.append((side, crossing))
    assert sorted(checks.small_sides(g.n, g.edges, 4)) == sorted(want)


def test_certificate_with_recolored_edge_is_rejected():
    g = rdnum.cycle_graph(6)
    ec, _ = rdnum.construct_rd_coloring(g)
    ok, certs, _ = verdict(ec)
    assert ok
    cert = next(c for c in certs if c.side.bit_count() not in (1, g.n - 1))
    assert checks.check_certificate(g.n, g.edges, ec.colors, cert) is None
    (edge, _), *_ = cert.crossing
    recolored = list(ec.colors)
    recolored[g.edges.index(edge)] += 1
    assert checks.check_certificate(g.n, g.edges, tuple(recolored), cert)
    dropped = dataclasses.replace(cert, crossing=cert.crossing[1:])
    assert checks.check_certificate(g.n, g.edges, ec.colors, dropped)


def test_verdict_with_dropped_certificate_is_rejected():
    g = rdnum.petersen_graph()
    ec, _ = rdnum.construct_rd_coloring(g)
    ok, certs, failing = verdict(ec)
    assert checks.check_verdict(g.n, g.edges, ec.colors, ok, certs, failing) is None
    assert checks.check_verdict(g.n, g.edges, ec.colors, ok, certs[:-1], failing)
    assert checks.check_verdict(g.n, g.edges, ec.colors, ok, certs[1:] + certs[:1], failing)


def test_wrong_verdicts_are_rejected():
    g = rdnum.complete_graph(5)
    bad = EdgeColoring(g, (1,) * g.m)
    ok, certs, failing = verdict(bad)
    assert not ok
    assert checks.check_verdict(g.n, g.edges, bad.colors, ok, certs, failing) is None
    assert checks.check_verdict(g.n, g.edges, bad.colors, True, certs, None)
    pairs = list(combinations(range(g.n), 2))
    later = pairs[pairs.index(failing) + 1]
    assert checks.check_verdict(g.n, g.edges, bad.colors, ok, certs, later)
    good, _ = rdnum.construct_rd_coloring(g)
    ok, certs, failing = verdict(good)
    assert checks.check_verdict(g.n, g.edges, good.colors, False, certs[:0], (0, 1))


def test_first_pair_without_rainbow_cut_matches_the_program():
    import random

    rng = random.Random(7)
    for g in small_census():
        k = rng.randint(1, 4)
        colors = tuple(rng.randint(1, k) for _ in g.edges)
        rep = rdnum.verify_rd_coloring(EdgeColoring(g, colors))
        assert checks.first_pair_without_rainbow_cut(g.n, g.edges, colors) == rep.failing_pair


def test_wrong_value_or_recolored_coloring_is_rejected():
    g = rdnum.petersen_graph()
    res = rdnum.rd_exact(g, rules=())
    colors = res.coloring.colors
    assert checks.check_value(g.n, g.edges, res.value, colors) is None
    assert checks.check_value(g.n, g.edges, 2, None)  # below lambda+ = 3
    assert checks.check_value(g.n, g.edges, 5, None)  # above max degree + 1
    # a valid coloring may survive some single recolorings, not all of them
    recolored = [
        colors[:i] + (c,) + colors[i + 1:]
        for i in range(g.m)
        for c in range(1, res.value + 1)
        if c != colors[i]
    ]
    assert any(checks.check_value(g.n, g.edges, res.value, r) for r in recolored)


def test_wrong_census_count_is_rejected():
    assert checks.check_census({6: 112, 7: 853}) is None
    assert checks.check_census({7: 852})


def synthetic_report(**override) -> str:
    tallies = {name: (853, 0, 0) for name in [f"rule{i}" for i in range(17)]}
    tallies.update({
        "cycle_rd_two": (1, 0, 852),
        "complete_rd": (1, 0, 852),
        "multipartite_rd": (14, 0, 839),
        "regular_window": (4, 0, 849),
        "koenig_bipartite": (44, 0, 809),
        "subgraph_monotonicity": (842, 0, 11),
        **{name: (662, 0, 191) for name in
           ("ng_sum_lower", "ng_sum_upper", "ng_product_lower", "ng_product_upper")},
    })
    tallies.update(override)
    lines = ["SURVEY graphs=853"]
    lines += [f"RULE {n} pass={p} fail={f} na={na}" for n, (p, f, na) in tallies.items()]
    return "\n".join(lines + ["RESULT ok"]) + "\n"


def test_survey_report_with_a_wrong_count_is_rejected():
    assert checks.check_survey_report(synthetic_report()) is None
    assert checks.check_survey_report(synthetic_report(koenig_bipartite=(43, 0, 810)))
    assert checks.check_survey_report(synthetic_report(ng_sum_upper=(661, 0, 192)))
    assert checks.check_survey_report(synthetic_report(subgraph_monotonicity=(843, 0, 10)))
    assert checks.check_survey_report(synthetic_report(rule0=(852, 0, 0)))
    text = synthetic_report()
    assert checks.check_survey_report(text.replace("RESULT ok", "VIOLATION x y\nRESULT ok"))
    assert checks.check_survey_report(text.replace("graphs=853", "graphs=852"))


def test_tracer_catches_calls_between_modules_and_restores_them():
    original = rdnum.rd.rd_bounds
    tracer = Tracer()
    tracer.install()
    try:
        rdnum.rd_exact(rdnum.petersen_graph(), rules=rdnum.CHAIN_RULES)
    finally:
        tracer.uninstall()
    assert rdnum.rd.rd_bounds is original
    layers = tracer.layer_metrics(0)
    assert layers["rd.exact_calls"] == 1
    assert layers["rd.bounds_calls"] == 1
    assert layers["connectivity.lambda_plus_calls"] == 1
    assert layers["rd.search_nodes"] == 3519
    assert layers["rd.search_levels"] == 1
    assert layers["rd.bounds_self_s"] > 0
