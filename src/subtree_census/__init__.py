"""Exact subtree counting: mean subtree order of small graphs, star-ended
path families with symbolic star sizes, and complete split/bipartite graphs.
"""

from .census import (
    MarkedCensus,
    Subtree,
    SubtreeStats,
    added_edge_stats,
    attach_pendant_stars,
    census_with_required,
    compare_means,
    density,
    enumerate_subtrees,
    marked_census,
    marked_census_bruteforce,
    mean,
    spanning_tree_count,
    subtree_stats_bruteforce,
    subtree_stats_kirchhoff,
    through_edge_stats,
    tree_subtree_stats,
)
from .errors import (
    Graph6Error,
    InvariantViolation,
    NoStemError,
    NotATreeError,
    TooLargeError,
)
from .graphs import (
    Graph,
    emit_graph6,
    equal_span_chords,
    join,
    make_broom_core,
    make_chorded_broom,
    make_chorded_broom_core,
    make_complete,
    make_complete_bipartite,
    make_complete_split,
    make_cycle,
    make_double_broom,
    make_empty,
    make_fan_broom,
    make_fan_broom_core,
    make_path,
    make_star,
    parse_graph6,
)

__all__ = [name for name in dir() if not name.startswith("_")]
