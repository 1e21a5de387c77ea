"""Property tests for admission control: exact decisions, exact round trip.

``admit()`` must drop exactly the droppable set -- every variable of an
object whose class the policy proved race-free in that field -- and
nothing else.  Fuzzed here over random universes of objects, classes,
and race-free field sets, alongside the JSON round trip the ``--admit``
flags and the ``!admit`` wire verb both rely on.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis.admission import AdmissionFilter

class_names = st.sampled_from(["A", "B", "C", "D", "Worker", "arr3[]"])
field_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=6
) | st.sampled_from(["[]"])
obj_values = st.integers(min_value=1, max_value=10**6)

race_free_sets = st.sets(st.tuples(class_names, field_names), max_size=12)
objmaps = st.dictionaries(obj_values, class_names, max_size=16)


@settings(max_examples=200)
@given(
    race_free=race_free_sets,
    objmap=objmaps,
    probes=st.lists(st.tuples(obj_values, field_names), max_size=32),
)
def test_filter_drops_exactly_the_droppable_set(race_free, objmap, probes):
    """admit() == exact droppable-set complement; ``refused`` is what it
    dropped."""
    filt = AdmissionFilter(race_free=race_free, objmap=objmap, workload="prop")
    droppable = set(filt.droppable_vars())
    for obj_value, field in list(droppable) + probes:
        expected_drop = (obj_value, field) in droppable
        assert filt.admit(obj_value, field) == (not expected_drop)
    assert filt.refused == droppable


@settings(max_examples=100)
@given(
    race_free=race_free_sets,
    objmap=objmaps,
    probes=st.lists(st.tuples(obj_values, field_names), max_size=16),
)
def test_json_roundtrip_preserves_every_decision(race_free, objmap, probes):
    filt = AdmissionFilter(race_free=race_free, objmap=objmap, workload="prop")
    back = AdmissionFilter.from_json(filt.to_json())
    assert back.race_free == filt.race_free
    assert back.objmap == filt.objmap
    assert back.to_json() == filt.to_json()
    for obj_value, field in probes:
        assert back.admit(obj_value, field) == filt.clone().admit(
            obj_value, field
        )
