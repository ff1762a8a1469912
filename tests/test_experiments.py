import numpy as np
import pytest

from smallball import (
    ExperimentConfig,
    ProcessSpec,
    ape,
    rmsep,
    run_experiment,
    run_replication,
    write_ape_csv,
    write_table1_csv,
    write_table2_csv,
)


class TestRmsep:
    def test_exact_match(self):
        assert rmsep([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_all_zero_estimates(self):
        assert rmsep([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]) == 1.0

    def test_common_scale_factor(self):
        truths = np.array([0.5, 1.5, 2.5])
        assert rmsep(1.1 * truths, truths) == pytest.approx(0.01)

    def test_zero_truths_rejected(self):
        with pytest.raises(ValueError):
            rmsep([1.0], [0.0])


class TestApe:
    def test_exact(self):
        assert ape(1.2, 1.2) == 0.0

    def test_double(self):
        assert ape(2.4, 1.2) == pytest.approx(1.0)

    def test_hand_value(self):
        assert ape(0.9, 1.2) == pytest.approx(0.25)

    def test_elementwise_on_arrays(self):
        got = ape(np.array([1.2, 2.4, 0.9]), np.array([1.2, 1.2, 1.2]))
        np.testing.assert_array_equal(got, [ape(1.2, 1.2), ape(2.4, 1.2), ape(0.9, 1.2)])

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            ape(1.0, 0.0)


def small_config(**overrides):
    base = dict(
        process=ProcessSpec(kind="sine", dist="std-normal"),
        n=60,
        d_values=(1,),
        replications=4,
        base_seed=31415,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestReplication:
    def test_deterministic(self):
        cfg = small_config()
        a = run_replication(cfg, 2)
        b = run_replication(cfg, 2)
        assert a.rmsep_by_d == b.rmsep_by_d
        assert np.array_equal(a.ape_by_b, b.ape_by_b, equal_nan=True)

    def test_single_rep_matches_experiment(self):
        cfg = small_config(replications=1)
        rep = run_replication(cfg, 0)
        res = run_experiment(cfg)
        assert res.rmsep_mean[1] == rep.rmsep_by_d[1]
        assert res.rmsep_std[1] == 0.0

    def test_sine_n1000_band(self):
        """One replication of the reference setting lands in the plausible band."""
        cfg = small_config(n=1000, replications=1, base_seed=5)
        rep = run_replication(cfg, 0)
        assert 0.0005 < rep.rmsep_by_d[1] < 0.02

    def test_wiener_dimension_blowup(self):
        cfg = ExperimentConfig(
            process=ProcessSpec(kind="wiener", J=50),
            n=50,
            d_values=(1, 6),
            replications=1,
            base_seed=5,
        )
        rep = run_replication(cfg, 0)
        assert rep.rmsep_by_d[6] > 5.0 * rep.rmsep_by_d[1]

    def test_chisq_boundary_excluded_from_ape(self):
        from smallball import true_intensity
        from smallball.experiments import APE_TRUTH_FLOOR

        cfg = small_config(process=ProcessSpec(kind="sine", dist="std-chisq8"), replications=1)
        rep = run_replication(cfg, 0)
        truths = true_intensity("sine", "std-chisq8", np.asarray(cfg.b_grid))
        excluded = truths <= APE_TRUTH_FLOOR
        assert excluded[0]  # the support boundary b = -2 has zero truth
        assert np.all(np.isnan(rep.ape_by_b[excluded]))
        assert np.all(np.isfinite(rep.ape_by_b[~excluded]))


class TestRunExperiment:
    def test_parallel_equals_serial(self):
        cfg = small_config(replications=6)
        serial = run_experiment(cfg, threads=1)
        parallel = run_experiment(cfg, threads=3)
        assert serial.rmsep_mean == parallel.rmsep_mean
        assert serial.rmsep_std == parallel.rmsep_std
        assert np.array_equal(serial.ape_mean, parallel.ape_mean, equal_nan=True)

    def test_config_hash_tracks_content(self):
        a = small_config()
        b = small_config(base_seed=999)
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() == small_config().config_hash()

    def test_mean_and_std_aggregate_draws(self):
        cfg = small_config(replications=5)
        res = run_experiment(cfg)
        draws = res.rmsep_draws[1]
        assert res.rmsep_mean[1] == pytest.approx(float(draws.mean()))
        assert res.rmsep_std[1] == pytest.approx(float(draws.std(ddof=1)))

    def test_wiener_study_matches_recorded_values(self):
        # Recorded from the evaluator that summed each kernel row with numpy's
        # pairwise sum and built the targets in every replication; the
        # four-pass GEMM/GEMV evaluator and the cached study inputs must give
        # the same study to 1e-12.
        cfg = ExperimentConfig(ProcessSpec(kind="wiener"), n=200, d_values=(1, 2, 3), replications=5, base_seed=3)
        res = run_experiment(cfg)
        assert res.config_sha == "55010cb16f1d2c3cea1e4e9e15dc702e8ed27aa1a3205bb06456df9f4beece72"
        rtol = 1e-12
        np.testing.assert_allclose(
            [res.rmsep_mean[d] for d in (1, 2, 3)],
            [0.0073287356071743874, 0.08734956587358284, 0.3149897142397638],
            rtol=rtol, atol=0.0,
        )
        np.testing.assert_allclose(
            [res.rmsep_std[d] for d in (1, 2, 3)],
            [0.0037522864130920095, 0.009946822752567173, 0.03367072429100251],
            rtol=rtol, atol=0.0,
        )
        assert res.ape_mean.shape == (160,)
        np.testing.assert_allclose(
            res.ape_mean[::10],
            [0.7143694196937178, 0.7922882978037229, 0.9119458460044643, 0.44320184860042533,
             0.18519941242916443, 0.07383996177485577, 0.07979490738699686, 0.04380980398582375,
             0.044338482155266354, 0.08497455466858692, 0.0722051156781646, 0.13000106000058892,
             0.18958070367167545, 0.4390284143219597, 0.7397059766456939, 1.2419547708830156],
            rtol=rtol, atol=0.0,
        )
        assert res.ape_mean.sum() == pytest.approx(88.20625808172008, rel=rtol, abs=0.0)


class TestCsvWriters:
    def test_table_and_ape_outputs(self, tmp_path):
        res = run_experiment(small_config(replications=2))
        t1 = tmp_path / "table1.csv"
        write_table1_csv([res], t1)
        lines = t1.read_text().strip().split("\n")
        assert lines[0] == "dist,n,mean,std"
        assert lines[1].startswith("std-normal,60,")

        t2 = tmp_path / "table2.csv"
        write_table2_csv([res], t2)
        assert t2.read_text().startswith("n,d,mean,std\n60,1,")

        apecsv = tmp_path / "ape.csv"
        write_ape_csv([res], apecsv)
        rows = apecsv.read_text().strip().split("\n")
        assert rows[0] == "dist,n,b,mean_ape"
        assert len(rows) == 1 + len(res.config.b_grid)

    def test_rerun_byte_identical(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            res = run_experiment(small_config(replications=3), threads=2 if name == "b.csv" else 1)
            write_table1_csv([res], tmp_path / name)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_config_rejects_process_without_intensity():
    with pytest.raises(ValueError, match="closed-form intensity"):
        ExperimentConfig(
            process=ProcessSpec(kind="gaussian-kl", J=2, lambdas=(1.0, 0.5)),
            n=20,
            d_values=(1,),
            replications=1,
            base_seed=0,
        )


@pytest.mark.parametrize(
    "process, d_values, rank",
    [(ProcessSpec(kind="wiener", J=2), (1, 2, 3), 2), (ProcessSpec(kind="sine"), (1, 2), 1)],
)
def test_config_rejects_d_above_process_rank(process, d_values, rank):
    # Score columns past the process rank are rounding noise, so a study at
    # such d would report an RMSEP of a KDE over noise.
    with pytest.raises(ValueError) as err:
        ExperimentConfig(process=process, n=50, d_values=d_values, replications=1)
    message = str(err.value)
    assert f"d={max(d_values)}" in message and f"rank {rank}" in message and "n=50" in message
    ExperimentConfig(process=process, n=50, d_values=tuple(range(1, rank + 1)), replications=1)


def test_config_rejects_repeated_d():
    # A repeated d would write its table row twice, run its KDE twice per
    # replication and hash to a different config_sha than the same study.
    with pytest.raises(ValueError, match=r"repeats d=2;"):
        ExperimentConfig(process=ProcessSpec(kind="wiener", J=5), n=50, d_values=(2, 1, 2), replications=1)
    with pytest.raises(ValueError, match=r"repeats d=1, 3;"):
        ExperimentConfig(process=ProcessSpec(kind="wiener", J=5), n=50, d_values=(3, 1, 3, 1), replications=1)
    ExperimentConfig(process=ProcessSpec(kind="wiener", J=5), n=50, d_values=(2, 1), replications=1)


def test_failed_replication_reports_its_index(monkeypatch):
    import smallball.experiments as exp

    real = exp.run_replication

    def boom(config, rep_index):
        if rep_index == 2:
            raise ValueError("synthetic failure")
        return real(config, rep_index)

    monkeypatch.setattr(exp, "run_replication", boom)
    with pytest.raises(RuntimeError, match="replication 2 failed"):
        exp.run_experiment(small_config(replications=4))
