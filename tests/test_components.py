"""Connected components + near-dup dedup (stages/components.py).

Oracle: a plain python union-find over the same edge list — independent of
the distributed star-contraction implementation.
"""

import numpy as np
import pyarrow as pa
import pytest


def _union_find_components(edges):
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    comp_min = {}
    for node in list(parent):
        r = find(node)
        comp_min[r] = min(comp_min.get(r, node), node)
    return {node: comp_min[find(node)] for node in parent}


def _run_cc(edges, **kw):
    import ray.data
    from post_ocr_corrector_ray.stages.components import connected_components

    t = pa.table({"id_a": pa.array([a for a, _ in edges], pa.int64()),
                  "id_b": pa.array([b for _, b in edges], pa.int64())})
    out = connected_components(ray.data.from_arrow(t), **kw).to_pandas()
    if out.empty:
        return {}
    return dict(zip(out["node"], out["component"]))


def test_cc_matches_union_find_random_graph(ray_session, exchange_width):
    rng = np.random.default_rng(7)
    # sparse random graph over sparse ids → many non-trivial components
    nodes = rng.choice(10_000, size=300, replace=False)
    edges = [(int(nodes[i]), int(nodes[j]))
             for i, j in rng.integers(0, len(nodes), size=(250, 2))
             if i != j]
    expect = _union_find_components(edges)
    with exchange_width(4):
        assert _run_cc(edges) == expect


def test_cc_long_chain_converges(ray_session, exchange_width):
    # a 60-node path is the adversarial case for naive label propagation;
    # star contraction must still converge within the round bound
    edges = [(i, i + 1) for i in range(60)]
    with exchange_width(3):
        got = _run_cc(edges)
    assert got == {i: 0 for i in range(61)}


def test_cc_partition_count_invariance(ray_session, exchange_width,
                                      monkeypatch):
    """The components are the same at widths 2 and 8, and a spy on
    ``grouped_apply`` shows every star-round exchange ran at the width
    asked for (a clamp would run both at one width and prove nothing)."""
    from post_ocr_corrector_ray.stages import components

    rng = np.random.default_rng(13)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 120, size=(90, 2))
             if a != b]
    widths, real_apply = [], components.grouped_apply

    def spy(*a, num_partitions=None, **kw):
        widths.append(num_partitions)
        return real_apply(*a, num_partitions=num_partitions, **kw)

    monkeypatch.setattr(components, "grouped_apply", spy)
    got = {}
    for p in (2, 8):
        widths.clear()
        with exchange_width(p):
            got[p] = _run_cc(edges)
        assert len(widths) >= 3 and set(widths) == {p}
    assert got[2] == got[8] == _union_find_components(edges)


def test_cc_empty_edges(ray_session, exchange_width):
    with exchange_width(4):
        assert _run_cc([]) == {}


def test_cc_duplicate_and_reversed_edges(ray_session, exchange_width):
    edges = [(5, 9), (9, 5), (5, 9), (9, 12), (1, 2)]
    with exchange_width(4):
        assert _run_cc(edges) == {5: 5, 9: 5, 12: 5, 1: 1, 2: 1}


def test_near_dedup_keeps_min_representative(ray_session, exchange_width):
    import ray.data
    from post_ocr_corrector_ray.stages.components import near_dedup

    docs = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(list(range(30)), pa.int64())}))
    pairs = ray.data.from_arrow(
        pa.table({"id_a": pa.array([3, 4, 17, 20], pa.int64()),
                  "id_b": pa.array([4, 5, 18, 21], pa.int64())}))
    with exchange_width(4):
        surv = sorted(near_dedup(docs, pairs).to_pandas()["doc_id"].tolist())
    assert surv == sorted(set(range(30)) - {4, 5, 18, 21})


def test_cc_non_convergence_raises(ray_session, exchange_width):
    from post_ocr_corrector_ray.stages.components import connected_components
    import ray.data

    t = pa.table({"id_a": pa.array([i for i in range(40)], pa.int64()),
                  "id_b": pa.array([i + 1 for i in range(40)], pa.int64())})
    with exchange_width(2), pytest.raises(RuntimeError, match="no convergence"):
        connected_components(ray.data.from_arrow(t), max_rounds=0)


from hypothesis import given, settings, strategies as st


@settings(max_examples=12, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)),
                min_size=0, max_size=80),
       st.sampled_from([3, 8]))
def test_cc_property_matches_union_find(ray_session, exchange_width, edges,
                                        parts):
    edges = [(a, b) for a, b in edges if a != b]
    with exchange_width(parts):
        assert _run_cc(edges) == _union_find_components(edges)


def _incr_oracle(new_ids, old_ids, edges):
    """Expected incremental-dedup survivors by union-find: drop new docs in
    any component containing a store doc; else keep the min-id new doc."""
    comp = _union_find_components(edges)
    groups = {}
    for node, c in comp.items():
        groups.setdefault(c, []).append(node)
    drop = set()
    for members in groups.values():
        if any(m in old_ids for m in members):
            drop.update(m for m in members if m in new_ids)
        else:
            news = sorted(m for m in members if m in new_ids)
            drop.update(news[1:])
    return sorted(set(new_ids) - drop)


def test_near_dedup_incremental(ray_session, exchange_width):
    import ray.data
    from post_ocr_corrector_ray.stages.components import near_dedup_incremental

    old_ids = {100, 101, 102}
    new_ids = set(range(1, 20))
    # 1-100 (into store), 2-1 (chain into store through new), 5-7-9 (new-only
    # cluster), 11 pairs with store 102, isolated news
    edges = [(1, 100), (2, 1), (5, 7), (7, 9), (11, 102)]
    docs = ray.data.from_arrow(pa.table(
        {"doc_id": pa.array(sorted(new_ids), pa.int64())}))
    store = ray.data.from_arrow(pa.table(
        {"doc_id": pa.array(sorted(old_ids), pa.int64())}))
    pairs = ray.data.from_arrow(pa.table(
        {"id_a": pa.array([a for a, _ in edges], pa.int64()),
         "id_b": pa.array([b for _, b in edges], pa.int64())}))
    with exchange_width(4):
        surv = sorted(near_dedup_incremental(docs, store, pairs)
                      .to_pandas()["doc_id"].tolist())
    want = _incr_oracle(new_ids, old_ids, edges)
    assert surv == want
    # explicit: 1,2 drop (store chain); 11 drops; of {5,7,9} only 5 survives
    assert 1 not in surv and 2 not in surv and 11 not in surv
    assert 5 in surv and 7 not in surv and 9 not in surv


@settings(max_examples=5, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                min_size=0, max_size=50))
def test_near_dedup_incremental_property(ray_session, exchange_width,
                                         raw_edges):
    import ray.data
    from post_ocr_corrector_ray.stages.components import near_dedup_incremental

    old_ids = set(range(30, 41))
    new_ids = set(range(0, 30))
    edges = [(a, b) for a, b in raw_edges if a != b]
    docs = ray.data.from_arrow(pa.table(
        {"doc_id": pa.array(sorted(new_ids), pa.int64())}))
    store = ray.data.from_arrow(pa.table(
        {"doc_id": pa.array(sorted(old_ids), pa.int64())}))
    pairs = ray.data.from_arrow(pa.table(
        {"id_a": pa.array([a for a, _ in edges], pa.int64()),
         "id_b": pa.array([b for _, b in edges], pa.int64())}))
    with exchange_width(3):
        surv = sorted(near_dedup_incremental(docs, store, pairs)
                      .to_pandas()["doc_id"].tolist())
    assert surv == _incr_oracle(new_ids, old_ids, edges)


def test_near_dedup_incremental_exchange_count(ray_session, exchange_width,
                                               monkeypatch):
    """After the clustering, the survivors take three keyed exchanges: the
    semi join marking store nodes, one survivor step keyed on the
    component, and the final anti join."""
    import ray.data
    from post_ocr_corrector_ray.stages import components, joins, shuffle

    calls = []
    real_apply, real_cc = shuffle.grouped_apply, components.connected_components

    def counting_apply(*a, **kw):
        calls.append(1)
        return real_apply(*a, **kw)

    def marking_cc(*a, **kw):
        out = real_cc(*a, **kw)
        calls.clear()
        return out

    for mod in (shuffle, joins, components):
        monkeypatch.setattr(mod, "grouped_apply", counting_apply)
    monkeypatch.setattr(components, "connected_components", marking_cc)
    edges = [(1, 100), (2, 1), (5, 7), (7, 9), (11, 102)]
    docs = ray.data.from_arrow(pa.table(
        {"doc_id": pa.array(range(1, 20), pa.int64())}))
    store = ray.data.from_arrow(pa.table(
        {"doc_id": pa.array([100, 101, 102], pa.int64())}))
    pairs = ray.data.from_arrow(pa.table(
        {"id_a": pa.array([a for a, _ in edges], pa.int64()),
         "id_b": pa.array([b for _, b in edges], pa.int64())}))
    with exchange_width(4):
        surv = components.near_dedup_incremental(docs, store, pairs)
    assert len(calls) == 3
    assert sorted(surv.to_pandas()["doc_id"].tolist()) == _incr_oracle(
        set(range(1, 20)), {100, 101, 102}, edges)


def test_empty_schema_divergence_filter_selectivity():
    """The logger filter drops ONLY empty-new-schema divergence noise (Ray's
    map_groups yields nothing for empty sorted blocks); real schema drift
    between two non-empty schemas must still pass through."""
    import logging

    from post_ocr_corrector_ray.stages.shuffle import _EmptySchemaDivergenceFilter

    f = _EmptySchemaDivergenceFilter()

    def rec(msg):
        return logging.LogRecord("x", logging.WARNING, "f", 1, msg, (), None)

    noise = ("Operator produced a RefBundle with a different schema than the "
             "previous one. Previous schema: PandasBlockSchema(names=['u'], "
             "types=[dtype('int64')]), new schema: PandasBlockSchema(names=[], "
             "types=[]). This may lead to unexpected behavior.")
    drift = ("Operator produced a RefBundle with a different schema than the "
             "previous one. Previous schema: PandasBlockSchema(names=['u'], "
             "types=[dtype('int64')]), new schema: PandasBlockSchema("
             "names=['v'], types=[dtype('int64')]). This may lead to "
             "unexpected behavior.")
    unrelated = "some other warning"
    assert f.filter(rec(noise)) is False
    assert f.filter(rec(drift)) is True
    assert f.filter(rec(unrelated)) is True
