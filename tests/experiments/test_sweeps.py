"""Integration tests for the paper-experiment sweeps (tiny configurations)."""


from repro.experiments import (
    run_capacity_sweep,
    run_distributed_equivalence,
    run_precision_ablation,
    run_receptive_field_sweep,
    run_related_work_comparison,
)


class TestCapacitySweep:
    def test_structure_and_content(self, tiny_scale, tiny_higgs_data):
        result = run_capacity_sweep(
            scale=tiny_scale,
            hcu_values=(1, 2),
            mcu_values=(10, 30),
            repeats=1,
            data=tiny_higgs_data,
            seed=0,
        )
        assert len(result["rows"]) == 4
        assert {"hcus", "mcus", "accuracy_mean", "train_seconds_mean"} <= set(result["rows"][0])
        assert result["best"]["accuracy_mean"] == max(r["accuracy_mean"] for r in result["rows"])
        assert "Fig. 3" in result["table"]

    def test_larger_capacity_generally_helps(self, tiny_scale, tiny_higgs_data):
        result = run_capacity_sweep(
            scale=tiny_scale,
            hcu_values=(1,),
            mcu_values=(5, 40),
            repeats=2,
            data=tiny_higgs_data,
            seed=1,
        )
        small = next(r for r in result["rows"] if r["mcus"] == 5)
        large = next(r for r in result["rows"] if r["mcus"] == 40)
        assert large["accuracy_mean"] >= small["accuracy_mean"] - 0.03


class TestReceptiveFieldSweep:
    def test_masks_are_optional(self, tiny_scale, tiny_higgs_data):
        result = run_receptive_field_sweep(
            scale=tiny_scale,
            density_values=(0.4,),
            n_minicolumns=10,
            repeats=1,
            data=tiny_higgs_data,
            seed=0,
            collect_masks=False,
        )
        assert result["masks"] == {}
        assert [row["density"] for row in result["rows"]] == [0.4]

    def test_rows_masks_and_peak(self, tiny_scale, tiny_higgs_data):
        result = run_receptive_field_sweep(
            scale=tiny_scale,
            density_values=(0.05, 0.4, 1.0),
            n_minicolumns=30,
            repeats=1,
            data=tiny_higgs_data,
            seed=0,
        )
        assert len(result["rows"]) == 3
        assert set(result["masks"]) == {0.05, 0.4, 1.0}
        # Mask size grows with density.
        assert result["masks"][1.0].sum() > result["masks"][0.05].sum()
        # A tiny receptive field should not beat a reasonable one.
        tiny = next(r for r in result["rows"] if r["density"] == 0.05)
        mid = next(r for r in result["rows"] if r["density"] == 0.4)
        assert mid["accuracy_mean"] >= tiny["accuracy_mean"] - 0.03


class TestRelatedWork:
    def test_all_methods_present(self, tiny_scale, tiny_higgs_data):
        result = run_related_work_comparison(scale=tiny_scale, data=tiny_higgs_data, seed=0)
        expected = {
            "bcpnn", "bcpnn+sgd", "logistic-regression", "shallow-nn",
            "boosted-trees", "deep-nn",
        }
        assert expected <= set(result["results"])
        for metrics in result["results"].values():
            assert 0.3 <= metrics["accuracy"] <= 1.0
        assert set(result["paper_reference_auc"]) >= {"bcpnn", "deep-nn"}


class TestDistributedAndPrecision:
    def test_distributed_equivalence(self, tiny_scale, tiny_higgs_data):
        result = run_distributed_equivalence(
            rank_counts=(1, 2), scale=tiny_scale, epochs=1, batch_size=256,
            data=tiny_higgs_data, seed=0,
        )
        assert result["all_equivalent"]
        assert all(r["max_trace_deviation"] < 1e-8 for r in result["rows"])

    def test_precision_ablation(self, tiny_scale, tiny_higgs_data):
        result = run_precision_ablation(
            precisions=("numpy", "float16"), scale=tiny_scale, data=tiny_higgs_data,
            n_minicolumns=20, seed=0,
        )
        assert [r["backend"] for r in result["rows"]] == ["numpy", "float16"]
        # Half precision should stay within a few points of the fp64 reference.
        assert abs(result["rows"][1]["accuracy_drop_vs_fp64"]) < 0.15
