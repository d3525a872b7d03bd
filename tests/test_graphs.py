import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subtree_census.errors import Graph6Error, TooLargeError
from subtree_census.graphs import (
    Graph,
    emit_graph6,
    equal_span_chords,
    join,
    make_broom_core,
    make_chorded_broom_core,
    make_complete,
    make_complete_bipartite,
    make_complete_split,
    make_empty,
    make_fan_broom_core,
    make_path,
    make_star,
    parse_graph6,
)

from conftest import random_graph


def test_make_path():
    assert make_path(1) == Graph.of(1, [])
    assert make_path(4).edges == frozenset({(0, 1), (1, 2), (2, 3)})
    assert make_path(2) == Graph.of(2, [(0, 1)])
    with pytest.raises(ValueError):
        make_path(0)


def test_make_star():
    assert make_star(0).order == 1
    s3 = make_star(3)
    assert s3.order == 4 and sum(0 in e for e in s3.edges) == 3
    assert make_star(1) == make_path(2)
    with pytest.raises(TooLargeError):
        make_star(64)


def test_join():
    assert join(make_empty(1), make_empty(5)) == make_star(5)
    g = join(make_complete(2), make_empty(3))
    assert g.order == 5 and g.size == 7
    assert join(make_empty(1), make_empty(1)) == make_path(2)


def test_join_split_relation():
    for m in range(1, 5):
        for n in range(1, 5):
            split = join(make_complete(m), make_empty(n))
            assert split == make_complete_split(m, n)
            internal = [(u, v) for u in range(m) for v in range(u + 1, m)]
            assert split.remove_edges(internal) == make_complete_bipartite(m, n)
            assert split.size == m * (m - 1) // 2 + m * n


def test_complete_bipartite_and_split():
    assert make_complete_bipartite(2, 3).size == 6
    assert make_complete_split(2, 3).size == 7
    for n in range(1, 6):
        assert make_complete_split(1, n) == make_complete_bipartite(1, n)


def test_broom_cores():
    core, hubs = make_broom_core(5)
    assert core == make_path(5) and hubs == frozenset({0, 4})
    fan, hubs = make_fan_broom_core(5, 2)
    assert fan.edges - make_path(5).edges == {(0, 4), (1, 4)}
    chorded, _ = make_chorded_broom_core(7, [(0, 3), (3, 6)])
    assert chorded.size == 6 + 2


def test_fan_core_rejects_path_edge_chord():
    # with length k+1 the last chord would duplicate a path edge
    with pytest.raises(ValueError, match="at least 4, not 3"):
        make_fan_broom_core(3, 2)
    with pytest.raises(ValueError, match="at least 3, not 2"):
        make_fan_broom_core(2, 1)
    with pytest.raises(ValueError, match="at least 4, not 2"):
        make_fan_broom_core(2, 2)
    with pytest.raises(ValueError):
        make_chorded_broom_core(5, [(2, 3)])


def test_equal_span_chords():
    assert equal_span_chords(7, 2, 3) == ((0, 3), (3, 6))
    with pytest.raises(ValueError):
        equal_span_chords(6, 2, 3)
    with pytest.raises(ValueError):
        equal_span_chords(9, 1, 1)


def test_parse_graph6_known_values():
    assert parse_graph6("A_") == Graph.of(2, [(0, 1)])
    assert parse_graph6("D?{") == Graph.of(5, [(i, 4) for i in range(4)])
    # header form
    assert parse_graph6(">>graph6<<A_") == Graph.of(2, [(0, 1)])


def test_emit_graph6_known_values():
    assert emit_graph6(Graph.of(2, [(0, 1)])) == "A_"
    assert emit_graph6(parse_graph6("D?{")) == "D?{"


def test_graph6_errors_carry_offsets():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("")
    assert exc.value.offset == 0
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("D?")  # truncated bit field
    assert exc.value.offset == 2
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("A" + chr(20))
    assert exc.value.offset == 1
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("A_?")  # trailing data
    assert exc.value.offset == 2


def test_graph6_long_form_parses_but_counting_rejects():
    from subtree_census.census import subtree_stats_kirchhoff

    n = 100
    g = Graph.of(n, [(i, i + 1) for i in range(n - 1)])
    text = emit_graph6(g)
    assert text.startswith("~")
    back = parse_graph6(text)
    assert back == g
    with pytest.raises(TooLargeError):
        subtree_stats_kirchhoff(back)


def test_graph6_round_trip_random_sample():
    rng = random.Random(20240811)
    for _ in range(1000):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.random())
        assert parse_graph6(emit_graph6(g)) == g


@settings(max_examples=200)
@given(st.data())
def test_graph6_round_trip_hypothesis(data):
    n = data.draw(st.integers(min_value=1, max_value=10))
    pairs = data.draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1])))
    g = Graph.of(n, pairs)
    assert parse_graph6(emit_graph6(g)) == g
