"""Tests for the synthetic HIGGS generator and loaders."""

import numpy as np
import pytest

from repro.datasets import (
    HIGGS_FEATURE_NAMES,
    HIGGS_HIGH_LEVEL,
    HIGGS_LOW_LEVEL,
    SyntheticHiggsGenerator,
    load_higgs,
    make_higgs_splits,
)
from repro.datasets.csvio import write_numeric_csv
from repro.exceptions import DataError
from repro.metrics import roc_auc


class TestSchema:
    def test_feature_counts_match_paper(self):
        assert len(HIGGS_LOW_LEVEL) == 21
        assert len(HIGGS_HIGH_LEVEL) == 7
        assert len(HIGGS_FEATURE_NAMES) == 28

    def test_generated_shape_and_labels(self):
        data = SyntheticHiggsGenerator(seed=0).sample(500)
        assert data.features.shape == (500, 28)
        assert set(np.unique(data.labels)) <= {0, 1}
        assert data.feature_names == HIGGS_FEATURE_NAMES


class TestGeneratorPhysics:
    def test_signal_fraction_respected(self):
        data = SyntheticHiggsGenerator(seed=1).sample(4000, signal_fraction=0.25)
        assert data.labels.mean() == pytest.approx(0.25, abs=0.03)

    def test_high_level_features_derived_from_low_level(self):
        data = SyntheticHiggsGenerator(seed=2).sample(300)
        low = data.features[:, : len(HIGGS_LOW_LEVEL)]
        recomputed = SyntheticHiggsGenerator.derive_high_level(low)
        assert np.allclose(recomputed, data.features[:, len(HIGGS_LOW_LEVEL) :], rtol=1e-9)

    def test_mbb_peaks_near_higgs_mass_for_signal(self):
        data = SyntheticHiggsGenerator(seed=3).sample(4000)
        m_bb = data.features[:, HIGGS_FEATURE_NAMES.index("m_bb")]
        signal_median = np.median(m_bb[data.labels == 1])
        background_median = np.median(m_bb[data.labels == 0])
        # The signal's b-jets come from a 125 GeV resonance; the background's
        # come from two different tops, so their pairing mass is broader/larger.
        assert 80 < signal_median < 180
        assert abs(signal_median - 125) < abs(background_median - 125)

    def test_classes_are_separable_but_not_trivially(self):
        data = SyntheticHiggsGenerator(seed=4).sample(4000)
        # A single high-level feature should give some but not perfect separation.
        m_wbb = data.features[:, HIGGS_FEATURE_NAMES.index("m_wbb")]
        auc = roc_auc(data.labels, -np.abs(m_wbb - np.median(m_wbb[data.labels == 1])))
        assert 0.52 < auc < 0.95

    def test_jets_are_pt_ordered(self):
        data = SyntheticHiggsGenerator(seed=5).sample(200)
        pts = np.stack(
            [data.features[:, HIGGS_FEATURE_NAMES.index(f"jet{j}_pt")] for j in range(1, 5)], axis=1
        )
        assert np.all(np.diff(pts, axis=1) <= 1e-9)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DataError):
            SyntheticHiggsGenerator(jet_energy_resolution=1.5)
        with pytest.raises(DataError):
            SyntheticHiggsGenerator(met_noise=-1.0)
        with pytest.raises(DataError):
            SyntheticHiggsGenerator(pileup_jet_fraction=2.0)

    def test_invalid_sample_arguments(self):
        generator = SyntheticHiggsGenerator(seed=0)
        with pytest.raises(DataError):
            generator.sample(0)
        with pytest.raises(DataError):
            generator.sample(10, signal_fraction=1.5)

    def test_derive_high_level_validates_width(self):
        with pytest.raises(DataError):
            SyntheticHiggsGenerator.derive_high_level(np.zeros((5, 10)))

    def test_reproducibility(self):
        a = SyntheticHiggsGenerator(seed=11).sample(100)
        b = SyntheticHiggsGenerator(seed=11).sample(100)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


class TestLoaders:
    def test_load_higgs_synthetic_fallback(self):
        data = load_higgs(n_samples=300, seed=0)
        assert data.metadata["synthetic"] is True
        assert data.n_samples == 300

    def test_load_higgs_from_real_style_file(self, tmp_path):
        # Write a tiny file in the UCI layout (label column first).
        synthetic = SyntheticHiggsGenerator(seed=0).sample(50)
        matrix = np.concatenate(
            [synthetic.labels[:, None].astype(float), synthetic.features], axis=1
        )
        path = write_numeric_csv(tmp_path / "HIGGS.csv.gz", matrix)
        data = load_higgs(n_samples=30, path=path)
        assert data.metadata["synthetic"] is False
        assert data.n_samples == 30
        assert data.features.shape[1] == 28

    def test_load_higgs_reads_the_file_the_environment_names(self, tmp_path, monkeypatch):
        synthetic = SyntheticHiggsGenerator(seed=1).sample(40)
        matrix = np.concatenate(
            [synthetic.labels[:, None].astype(float), synthetic.features], axis=1
        )
        path = write_numeric_csv(tmp_path / "elsewhere.csv", matrix)
        monkeypatch.setenv("REPRO_HIGGS_PATH", str(path))
        data = load_higgs(n_samples=25)
        assert data.metadata == {"path": str(path), "synthetic": False}
        assert np.array_equal(data.labels, synthetic.labels[:25])

    def test_load_higgs_missing_explicit_path(self, tmp_path):
        with pytest.raises(DataError):
            load_higgs(path=tmp_path / "nope.csv")

    def test_make_higgs_splits_balanced_and_disjoint(self):
        splits = make_higgs_splits(n_samples=1500, test_fraction=0.3, seed=5)
        counts = splits.train.class_counts()
        assert abs(int(counts[0]) - int(counts[1])) <= 1
        assert splits.test.n_samples > 0
        total = splits.train.n_samples + splits.test.n_samples
        assert total <= 1500

    def test_make_higgs_splits_with_validation(self):
        splits = make_higgs_splits(
            n_samples=1200, test_fraction=0.2, validation_fraction=0.2, seed=3
        )
        assert splits.validation is not None
        assert splits.validation.n_samples > 0
