"""Truth mask derivation and the categorical scores."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from cloudseg import (
    HYDROMETEOR_SPECIES,
    CloudMask,
    ContingencyTable,
    HydrometeorVolume,
    contingency,
    derive_truth_mask,
    verify,
)


def column_volume(profiles: dict, levels=3):
    """1x1 volume per species: {species: [per-level values]}."""
    species = tuple(profiles)
    values = np.zeros((len(species), levels, 1, 1))
    for i, name in enumerate(species):
        values[i, :, 0, 0] = profiles[name]
    return HydrometeorVolume(species, values)


class TestTruthMask:
    def test_colocated_species_sum_over_threshold(self):
        vol = column_volume({"cloud_water": [3e-7, 0, 0], "cloud_ice": [9e-7, 0, 0]})
        assert derive_truth_mask(vol).flags[0, 0]

    def test_all_zero_volume_is_clear(self):
        vol = HydrometeorVolume(("rain",), np.zeros((1, 4, 3, 3)))
        assert not derive_truth_mask(vol).flags.any()

    def test_sum_then_max_not_max_then_sum(self):
        # species peak at different levels; no level's sum clears 1e-6
        vol = column_volume({"cloud_water": [6e-7, 0, 0], "cloud_ice": [0, 6e-7, 0]})
        assert not derive_truth_mask(vol).flags[0, 0]
        # the wrong ordering (max per species, then sum) would say cloudy
        per_species_max = vol.values.max(axis=1).sum(axis=0)
        assert per_species_max[0, 0] > 1e-6

    def test_threshold_is_strict(self):
        vol = column_volume({"snow": [1e-6, 0, 0]})
        assert not derive_truth_mask(vol).flags[0, 0]
        assert derive_truth_mask(vol, threshold=9.9e-7).flags[0, 0]

    def test_per_column_independence(self, rng):
        values = rng.random((2, 3, 4, 5)) * 2e-6
        vol = HydrometeorVolume(("rain", "snow"), values)
        got = derive_truth_mask(vol).flags
        for r in range(4):
            for c in range(5):
                profile = values[:, :, r, c].sum(axis=0)
                assert got[r, c] == (profile.max() > 1e-6)

    def test_matches_whole_volume_rule(self):
        # magnitudes spread over four decades make the species sums round,
        # so summing in another order would flip columns at the threshold
        rng = np.random.default_rng(77)
        for case in range(600):
            species = 1 if case % 5 == 0 else int(rng.integers(1, 6))
            levels = 1 if case % 7 == 0 else int(rng.integers(1, 6))
            h, w = (int(n) for n in rng.integers(1, 7, size=2))
            shape = (species, levels, h, w)
            values = rng.random(shape) * 10.0 ** rng.uniform(-9, -5, shape)
            if case % 2:
                values = values.astype(np.float32).astype(np.float64)
            threshold = float(rng.choice(values.sum(axis=0).ravel()))  # some column sits on it
            want = oracles.truth_mask_reference(values, threshold)
            vol = HydrometeorVolume(HYDROMETEOR_SPECIES[:species], values)
            np.testing.assert_array_equal(derive_truth_mask(vol, threshold).flags, want)
            np.testing.assert_array_equal(
                derive_truth_mask(values.transpose(1, 0, 2, 3), threshold).flags, want)

    def test_needs_a_level(self):
        with pytest.raises(ValueError, match="at least one level"):
            derive_truth_mask([])

    def test_needs_a_species_in_every_level(self):
        with pytest.raises(ValueError, match="at least one species in each level"):
            derive_truth_mask([np.zeros((1, 2, 2)), np.zeros((0, 2, 2))])


class TestContingency:
    def test_perfect_prediction(self):
        truth = CloudMask(np.arange(20).reshape(4, 5) < 7)
        table = contingency(truth, truth)
        assert (table.hits, table.misses, table.false_alarms, table.correct_negatives) == (7, 0, 0, 13)

    def test_all_clear_prediction(self):
        truth = CloudMask(np.arange(20).reshape(4, 5) < 7)
        pred = CloudMask(np.zeros((4, 5), dtype=bool))
        table = contingency(pred, truth)
        assert (table.hits, table.misses, table.false_alarms, table.correct_negatives) == (0, 7, 0, 13)

    def test_matches_pixel_tally(self, rng):
        for _ in range(20):
            pred = CloudMask(rng.random((6, 7)) > 0.5)
            truth = CloudMask(rng.random((6, 7)) > 0.5)
            table = contingency(pred, truth)
            assert (table.hits, table.misses, table.false_alarms, table.correct_negatives) == \
                oracles.tally(pred.flags, truth.flags)

    def test_swap_transposes_misses_and_false_alarms(self, rng):
        pred = CloudMask(rng.random((5, 5)) > 0.4)
        truth = CloudMask(rng.random((5, 5)) > 0.6)
        a = contingency(pred, truth)
        b = contingency(truth, pred)
        assert (a.hits, a.correct_negatives) == (b.hits, b.correct_negatives)
        assert (a.misses, a.false_alarms) == (b.false_alarms, b.misses)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            contingency(CloudMask(np.zeros((2, 2), bool)), CloudMask(np.zeros((2, 3), bool)))

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            ContingencyTable(hits=-1, misses=0, false_alarms=0, correct_negatives=0)


class TestVerify:
    def test_worked_table(self):
        report = verify(ContingencyTable(40, 10, 5, 45))
        assert report.pod == pytest.approx(0.8, abs=1e-12)
        assert report.undetected_error_rate == pytest.approx(0.2, abs=1e-12)
        assert report.far == pytest.approx(0.1, abs=1e-12)
        assert report.bias == pytest.approx(0.9, abs=1e-12)
        assert report.ets == pytest.approx(17.5 / 32.5, abs=1e-12)
        assert report.far_conventional == pytest.approx(5 / 45, abs=1e-12)

    def test_perfect_table(self):
        report = verify(ContingencyTable(12, 0, 0, 30))
        assert report.pod == 1.0
        assert report.undetected_error_rate == 0.0
        assert report.far == 0.0
        assert report.bias == 1.0
        assert report.ets == 1.0

    def test_all_missed(self):
        report = verify(ContingencyTable(0, 8, 0, 12))
        assert report.pod == 0.0
        assert report.undetected_error_rate == 1.0
        assert report.far == 0.0
        hits_random = 8 * 0 / 20
        assert report.ets == (0 - hits_random) / (8 - hits_random)

    def test_pod_plus_ur_is_exactly_one(self, rng):
        for _ in range(300):
            tp = int(rng.integers(0, 10 ** 6))
            fn = int(rng.integers(0, 10 ** 6))
            if tp + fn == 0:
                continue
            report = verify(ContingencyTable(tp, fn, int(rng.integers(0, 100)), int(rng.integers(0, 100))))
            assert report.pod + report.undetected_error_rate == 1.0

    def test_undefined_metrics_are_none(self):
        all_negative = verify(ContingencyTable(0, 0, 0, 10))
        assert all_negative.pod is None
        assert all_negative.undetected_error_rate is None
        assert all_negative.bias is None
        assert all_negative.far_conventional is None
        assert all_negative.ets is None
        assert all_negative.far == 0.0

        all_cloud = verify(ContingencyTable(10, 0, 0, 0))
        assert all_cloud.far is None
        assert all_cloud.ets is None  # denominator collapses on the all-cloud table
        assert all_cloud.pod == 1.0

    def test_ets_never_exceeds_one(self, rng):
        for _ in range(200):
            counts = [int(rng.integers(0, 50)) for _ in range(4)]
            if sum(counts) == 0:
                continue
            report = verify(ContingencyTable(*counts))
            if report.ets is not None:
                assert report.ets <= 1.0 + 1e-15
                assert report.ets > -1.0 / 3.0 - 1e-12

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            verify(ContingencyTable(0, 0, 0, 0))

    def test_json_schema(self):
        d = dataclasses.asdict(verify(ContingencyTable(40, 10, 5, 45)))
        assert list(d) == ["pod", "far", "far_conventional", "undetected_error_rate",
                           "bias", "ets", "hits", "misses", "false_alarms", "correct_negatives"]
        none_d = dataclasses.asdict(verify(ContingencyTable(0, 0, 0, 10)))
        import json
        assert json.loads(json.dumps(none_d))["pod"] is None

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_metrics_invariant_under_permutation(self, data):
        h, w = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        pred = data.draw(arrays(bool, (h, w)))
        truth = data.draw(arrays(bool, (h, w)))
        perm = np.array(data.draw(st.permutations(range(h * w))), dtype=np.intp)
        moved = [CloudMask(m.ravel()[perm].reshape(h, w)) for m in (pred, truth)]
        assert verify(contingency(*moved)) == verify(contingency(CloudMask(pred), CloudMask(truth)))
