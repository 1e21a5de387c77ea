"""Group placement: round-robin over the sorted node names, pins on top."""

import dataclasses

import pytest

from repro.cluster import ClusterConfig, Placement


def test_placement_is_round_robin_over_sorted_names():
    placement = Placement(["b", "c", "a"], n_groups=7)
    assert [placement.node_of(g) for g in range(7)] == [
        "a", "b", "c", "a", "b", "c", "a",
    ]
    assert placement.assignment() == {"a": [0, 3, 6], "b": [1, 4], "c": [2, 5]}


def test_placement_is_order_independent():
    """Every process building a placement from the same members agrees,
    whatever order it was handed them in."""
    names = ["node2", "alpha", "node10", "node1"]
    forward = Placement(names, n_groups=9)
    for order in (reversed(names), sorted(names), names[1:] + names[:1]):
        other = Placement(order, n_groups=9)
        assert [other.node_of(g) for g in range(9)] == [
            forward.node_of(g) for g in range(9)
        ]


def test_a_pin_overrides_round_robin():
    placement = Placement(["a", "b"], n_groups=4)
    assert placement.node_of(0) == "a"
    placement.pin(0, "b")
    assert placement.node_of(0) == "b"
    assert placement.assignment() == {"a": [2], "b": [0, 1, 3]}
    # every other group keeps its round-robin home
    assert [placement.node_of(g) for g in (1, 2, 3)] == ["b", "a", "b"]
    placement.pin(0, "a")  # pinning back to the round-robin home is fine
    assert placement.assignment() == {"a": [0, 2], "b": [1, 3]}


def test_a_bad_group_or_an_unknown_node_raises():
    placement = Placement(["solo"], n_groups=2)
    assert placement.assignment() == {"solo": [0, 1]}
    for group in (-1, 2):
        with pytest.raises(ValueError):
            placement.node_of(group)
        with pytest.raises(ValueError):
            placement.pin(group, "solo")
    with pytest.raises(ValueError):
        placement.pin(0, "ghost")
    with pytest.raises(ValueError):
        Placement(["solo"], n_groups=0)
    with pytest.raises(ValueError):
        Placement([], n_groups=1)


def test_cluster_config_has_no_placement_knobs():
    assert [f.name for f in dataclasses.fields(ClusterConfig)] == [
        "nodes",
        "n_groups",
        "batch_size",
        "timeout",
        "obs",
        "admit",
    ]

