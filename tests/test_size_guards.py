"""The one size-guard override: every named cap refuses with its own message
past its bound, and `forced()` lifts each of them, giving what the call gives
with the cap untouched."""

import pytest

from nbcwalk import (
    GraphicMatroid,
    NbcComplex,
    SizeGuardError,
    build_long_edge_instance,
    build_named_graph,
    chains,
    count_independent_sets_by_size,
    down_up_matrix,
    enumerate_nbc_bases,
    errors,
    extend_to_nbc_base,
    face_numbers,
    forced,
    gadgets,
    graphs,
    local_spectral_profile,
    local_walk_matrix,
    nbc,
    spectral_gap,
    tutte_polynomial,
    verify_hardcore_identities,
)


def _complex(kind, *params):
    # A fresh complex per call: NbcComplex keeps its facets, so a second call
    # on one complex would not reach the base guard again.
    return NbcComplex(GraphicMatroid(build_named_graph(kind, *params)))


def _long_edge(n):
    inst = build_long_edge_instance(n)
    return inst.weights.weights, inst.marked_sets


def _local_walk(x, tau):
    walk = local_walk_matrix(x, tau)
    return walk.index, walk.pairs.tolist(), walk.denom


# (module, cap, low value, call, the refusal under the low value).  K5's NBC
# complex has rank 4, 120 faces and 24 bases; K4's has 6 bases of size 3.
GUARDS = {
    "nbc-faces-up-front": (
        nbc, "MAX_NBC_FACES", 8,
        lambda: face_numbers(_complex("complete", 5)),
        "more than MAX_NBC_FACES=8 NBC faces visited",
    ),
    "nbc-faces-counted": (
        nbc, "MAX_NBC_FACES", 16,
        lambda: face_numbers(_complex("complete", 5)),
        "more than MAX_NBC_FACES=16 NBC faces visited",
    ),
    "nbc-faces-extend": (
        nbc, "MAX_NBC_FACES", 2,
        lambda: extend_to_nbc_base(_complex("complete", 5), {3}),
        "more than MAX_NBC_FACES=2 NBC faces visited",
    ),
    "nbc-bases": (
        nbc, "MAX_NBC_BASES", 10,
        lambda: enumerate_nbc_bases(_complex("complete", 5)),
        "more than MAX_NBC_BASES=10 NBC bases",
    ),
    "eig-states": (
        chains, "MAX_EIG_STATES", 10,
        lambda: spectral_gap(down_up_matrix(_complex("complete", 5))),
        "24 states exceeds MAX_EIG_STATES=10",
    ),
    "face-subsets-profile": (
        chains, "MAX_FACE_SUBSETS", 40,
        lambda: local_spectral_profile(_complex("complete", 4)),
        "6 facets of size 3 exceed MAX_FACE_SUBSETS=40",
    ),
    "face-subsets-local-walk": (
        chains, "MAX_FACE_SUBSETS", 40,
        lambda: _local_walk(_complex("complete", 4), ()),
        "6 facets of size 3 exceed MAX_FACE_SUBSETS=40",
    ),
    "gadget-ground": (
        gadgets, "MAX_GADGET_GROUND", 5,
        lambda: _long_edge(7),
        "ground size 7 exceeds MAX_GADGET_GROUND=5",
    ),
    "hardcore-copies": (
        gadgets, "HARDCORE_MAX_COPIES", 1,
        lambda: verify_hardcore_identities(build_named_graph("complete", 3), 2),
        "r=2, |V|=3 exceeds desk scale (r <= 1, |V| <= 10)",
    ),
    "hardcore-base-vertices": (
        gadgets, "HARDCORE_MAX_BASE_VERTICES", 4,
        lambda: verify_hardcore_identities(build_named_graph("cycle", 5), 1),
        "r=1, |V|=5 exceeds desk scale (r <= 3, |V| <= 4)",
    ),
    "tutte-minors": (
        graphs, "TUTTE_MAX_MINORS", 10,
        lambda: tutte_polynomial(build_named_graph("complete", 6)),
        "more than TUTTE_MAX_MINORS=10 distinct minors, "
        "counting one more per KiB of each one's classes and polynomial",
    ),
    "indep-vertices": (
        graphs, "INDEP_COUNT_MAX_VERTICES", 4,
        lambda: count_independent_sets_by_size(build_named_graph("cycle", 5)),
        "5 vertices exceeds INDEP_COUNT_MAX_VERTICES=4",
    ),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_forced_lifts_the_guard(guard, monkeypatch):
    module, cap, low, call, message = GUARDS[guard]
    expected = call()
    monkeypatch.setattr(module, cap, low)
    with pytest.raises(SizeGuardError) as refused:
        call()
    assert str(refused.value) == message
    with forced():
        assert call() == expected
    assert errors.FORCED.get() is False
    with pytest.raises(SizeGuardError):
        call()


def test_forced_nests_and_restores_on_an_error(monkeypatch):
    monkeypatch.setattr(graphs, "INDEP_COUNT_MAX_VERTICES", 4)
    c5 = build_named_graph("cycle", 5)
    with forced():
        with pytest.raises(SizeGuardError), forced(False):
            count_independent_sets_by_size(c5)
        assert errors.FORCED.get() is True
        count_independent_sets_by_size(c5)
    assert errors.FORCED.get() is False


def test_a_generator_reads_the_switch_while_it_is_iterated(monkeypatch):
    monkeypatch.setattr(graphs, "INDEP_COUNT_MAX_VERTICES", 4)
    c5 = build_named_graph("cycle", 5)
    with forced():
        made_forced = graphs.iter_independent_sets(c5)
    with pytest.raises(SizeGuardError):
        next(made_forced)
    made_unforced = graphs.iter_independent_sets(c5)
    with forced():
        assert len(list(made_unforced)) == 11
