"""The perturbation and summary records, against the hand-written oracle."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from distpoison.attack import EdgeAddition, EdgeRemoval, FeatureFlip, PerturbationSet
from distpoison.experiment import RunResult
from record_oracle import perturbation_from_dict, perturbation_to_dict, run_result_to_dict

ints = st.integers(-(2**40), 2**40)
floats = st.floats(allow_nan=False)
config_values = st.one_of(ints, floats, st.text(max_size=6), st.booleans(), st.none())

perturbations = st.builds(
    PerturbationSet,
    edges_removed=st.lists(st.builds(EdgeRemoval, ints, ints, floats, ints), max_size=5),
    edges_added=st.lists(st.builds(EdgeAddition, ints, ints, ints), max_size=5),
    features_flipped=st.lists(
        st.builds(FeatureFlip, ints, ints, floats, floats, st.sampled_from([-1, 0, 1]), ints),
        max_size=5,
    ),
    homophily_penalties=st.lists(floats, max_size=5),
    config=st.dictionaries(st.text(max_size=6), config_values, max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(perturbations)
def test_perturbation_record_matches_oracle(p):
    text = json.dumps(p.to_dict(), indent=2)
    assert text == json.dumps(perturbation_to_dict(p), indent=2)
    assert PerturbationSet.from_dict(p.to_dict()) == p
    assert PerturbationSet.from_dict(json.loads(text)) == perturbation_from_dict(json.loads(text))


@settings(max_examples=100, deadline=None)
@given(
    st.builds(
        RunResult,
        seed=ints,
        acc_clean=floats,
        acc_attacked=floats,
        accuracy_drop=floats,
        divergence=st.lists(floats, max_size=5),
        homophily_distance=floats,
        attack_seconds=floats,
        edges_removed=ints,
        edges_added=ints,
        features_flipped=ints,
        records_clean=st.lists(ints, max_size=2),
        records_poisoned=st.lists(ints, max_size=2),
        perturbation=st.one_of(st.none(), perturbations),
        homophily_clean=st.just(np.zeros(3)),
        homophily_perturbed=st.none(),
    )
)
def test_run_result_summary_matches_oracle(r):
    assert json.dumps(r.to_dict(), indent=2) == json.dumps(run_result_to_dict(r), indent=2)
