"""End-to-end checks for configuration, ensembles, reports, and the CLI.

The contract defended here: a config is flat typed key = value text
whose effective form is echoed and hashed (execution topology and
artifact location excluded); results and artifacts are bit-reproducible
for any worker count; errors name the offending key, line, or path
index; and the CLI separates usage (1), numerical (2), and I/O (3)
failures.
"""
from __future__ import annotations

import hashlib
import inspect
import json
import math
import warnings

import numpy as np
import pytest

from snlslab.analysis import GROWTH_FIT_PATHS, classify_regime, growth_fit
from snlslab.cli import main
from snlslab.config import (
    ConfigError,
    _effective_alpha,
    load_config,
    make_initial,
    parse_config_text,
    with_path_seed,
)
from snlslab.dynamics import evolve
from snlslab.ensemble import EnsembleError, pool_map, run_ensemble, sample_ensemble_paths
from snlslab.grids import GridSpec
from snlslab.noise import NoiseSpec
from snlslab.reports import ReportIOError, _csv_text, emit_report, format_float, load_series_csv
from snlslab.selftest import run_selftest

# ---------------------------------------------------------------------------
# shared config texts (small grids, short horizons: these are plumbing tests)
# ---------------------------------------------------------------------------

SIM_TEXT = """\
experiment.kind = simulate
grid.points = 64
grid.box_length = 20.0
sim.sigma = 1.0
sim.dt = 2e-3
sim.t_end = 0.04
initial.amplitude = 0.7
"""

SNLS_TEXT = """\
experiment.kind = simulate
grid.points = 64
grid.box_length = 20.0
sim.sigma = 1.0
sim.dt = 2e-3
sim.t_end = 0.04
sim.equation = snls
initial.amplitude = 0.7
noise.phi_amplitude = 0.3
noise.seed = 3
"""

ENSEMBLE_TEXT = """\
experiment.kind = ensemble
grid.points = 64
grid.box_length = 20.0
sim.sigma = 1.0
sim.dt = 2e-3
sim.t_end = 0.04
sim.equation = snls
initial.amplitude = 0.7
ensemble.size = 4
noise.phi_amplitude = 0.3
noise.seed = 11
"""


def _write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------------------
# parsing and typing
# ---------------------------------------------------------------------------


def test_parse_config_text_types_and_comments():
    values = parse_config_text(
        "# a comment\n"
        "experiment.kind = simulate  # trailing comment\n"
        "\n"
        "grid.points = 48\n"
        "sim.dt = 1e-3\n"
        "scatter.checkpoints = 1.0, 2.0, 4.0\n"
        "sim.record = light\n"
    )
    assert values["experiment.kind"] == "simulate"
    assert values["grid.points"] == 48 and isinstance(values["grid.points"], int)
    assert values["sim.dt"] == 1e-3
    assert values["scatter.checkpoints"] == (1.0, 2.0, 4.0)
    assert values["sim.record"] == "light"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("grid.pointz = 48\n", "unknown key (line 1)"),
        ("grid.points = 32\n\ngrid.points = 64\n", "duplicate key (line 3)"),
        ("grid.points 32\n", "expected 'key = value'"),
        ("grid.points = many\n", "cannot parse 'many' as int"),
        ("scatter.checkpoints = ,\n", "cannot parse"),
    ],
)
def test_parse_rejects_bad_lines(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert fragment in str(err.value)


# ---------------------------------------------------------------------------
# load-time validation: every rejection names its key
# ---------------------------------------------------------------------------

BAD_CONFIGS = [
    ("grid.points = 32\n", "experiment.kind: missing"),
    ("experiment.kind = warp\n", "must be one of"),
    (SIM_TEXT + "scatter.norm = L2\n", "not used by experiment kind"),
    ("experiment.kind = simulate\nsim.t_end = 1.0\n", "sim.sigma: missing required key"),
    ("experiment.kind = selftest\ngrid.points = 32\n", "not used by experiment kind"),
    (
        "experiment.kind = ensemble\nsim.sigma = 1.0\nsim.t_end = 0.1\n"
        "sim.equation = deterministic\n",
        "runs noise ensembles",
    ),
    (SIM_TEXT + "noise.seed = 5\n", "does not consume"),
    (SIM_TEXT.replace("sim.t_end = 0.04", "sim.t_end = 0.041"), "integer multiple"),
    (SIM_TEXT + "sim.record = terse\n", "sim.record"),
    (SIM_TEXT.replace("sim.sigma = 1.0", "sim.sigma = -1.0"), "sigma must be positive"),
    (SIM_TEXT.replace("grid.points = 64", "grid.points = 63"), "grid"),
]

SCATTER_HEAD = (
    "experiment.kind = scatter-test\n"
    "grid.points = 64\n"
    "grid.box_length = 20.0\n"
    "sim.sigma = 1.0\n"
    "sim.dt = 1e-3\n"
    "sim.t_end = 0.06\n"
    "initial.amplitude = 0.7\n"
)

BAD_CONFIGS += [
    (SCATTER_HEAD + "scatter.checkpoints = 0.02, 0.04\n", "at least 3"),
    (SCATTER_HEAD + "scatter.checkpoints = 0.02, 0.02, 0.04\n", "strictly increasing"),
    (SCATTER_HEAD + "scatter.checkpoints = 0.02, 0.04, 0.08\n", "exceeds"),
    (
        SCATTER_HEAD + "scatter.checkpoints = 0.015, 0.03, 0.06\n",
        "not a recorded snapshot time",
    ),
    (
        SCATTER_HEAD + "scatter.checkpoints = 0.02, 0.04, 0.06\nscatter.norm = L7\n",
        "scatter.norm",
    ),
    (
        SCATTER_HEAD
        + "scatter.checkpoints = 0.02, 0.04, 0.06\nscatter.theorem = grand_unified\n",
        "scatter.theorem",
    ),
]

GROWTH_HEAD = (
    "experiment.kind = growth-fit\n"
    "grid.points = 64\n"
    "grid.box_length = 20.0\n"
    "sim.sigma = 1.0\n"
    "sim.dt = 1e-3\n"
    "sim.t_end = 0.2\n"
    "sim.equation = snls\n"
    "ensemble.size = 256\n"
)

TAIL_HEAD = (
    "experiment.kind = tail-decay\n"
    "grid.points = 32\n"
    "noise.g_kind = power_law\n"
    "noise.g_alpha = 3.0\n"
    "tail.t_inf = 4.0\n"
    "tail.dt = 1e-2\n"
    "tail.paths = 3\n"
)

BAD_CONFIGS += [
    (GROWTH_HEAD + "growth.tau_grid = 0.05, 0.1, 0.4\n", "exceeds"),
    (GROWTH_HEAD + "growth.tau_grid = 0.05, 0.1, 0.2\nsim.record = light\n", "record = full"),
    (TAIL_HEAD.replace("noise.g_kind = power_law\n", ""), "diverges"),
    (TAIL_HEAD + "tail.window_lo = 0.5\n", "set both or neither"),
    (TAIL_HEAD.replace("tail.paths = 3", "tail.paths = 1"), "at least 2 paths"),
    (TAIL_HEAD.replace("tail.t_inf = 4.0", "tail.t_inf = -4.0"), "must be positive"),
    (ENSEMBLE_TEXT.replace("ensemble.size = 4", "ensemble.size = 0"), ">= 1"),
    (ENSEMBLE_TEXT + "ensemble.workers = 0\n", ">= 1"),
]


@pytest.mark.parametrize("text, fragment", BAD_CONFIGS)
def test_load_config_rejections(text, fragment):
    with pytest.raises(ConfigError) as err:
        load_config(text=text)
    assert fragment in str(err.value)


def test_load_config_needs_exactly_one_source(tmp_path):
    with pytest.raises(ConfigError, match="exactly one"):
        load_config()
    p = _write_cfg(tmp_path, SIM_TEXT)
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(p, text=SIM_TEXT)
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.cfg")


def test_unknown_override_key_is_rejected():
    with pytest.raises(ConfigError, match="unknown override key"):
        load_config(text=SIM_TEXT, overrides={"sim.rng": 3})


def test_defaults_are_materialized():
    config = load_config(
        text="experiment.kind = simulate\nsim.sigma = 1.0\nsim.t_end = 0.01\n"
    )
    assert config.grid.dim == 1
    assert config.grid.points == 256
    assert config.grid.box_length == 24.0
    assert config.sim.dt == 1e-3
    assert config.sim.equation == "deterministic"
    assert config.sim.snapshot_stride == 10
    assert config.initial.kind == "gaussian"
    assert config.initial.amplitude == 1.0
    assert config.ensemble_size == 1 and config.workers == 1
    assert config.out_dir == "runs"
    # defaults appear in the canonical echo
    echo = config.echo()
    assert "grid.points = 256" in echo
    assert "sim.dt = 0.001" in echo
    # deterministic runs consume no noise keys, so none are echoed
    assert "noise." not in echo


# ---------------------------------------------------------------------------
# canonical echo and config hash
# ---------------------------------------------------------------------------


def test_hash_ignores_workers_and_output_dir():
    base = load_config(text=ENSEMBLE_TEXT)
    moved = load_config(
        text=ENSEMBLE_TEXT,
        overrides={"ensemble.workers": 4, "output.dir": "elsewhere"},
    )
    assert moved.workers == 4
    assert moved.out_dir == "elsewhere"
    assert base.config_hash == moved.config_hash
    assert "ensemble.workers" not in base.echo()
    assert "output.dir" not in base.echo()


def test_hash_tracks_effective_values():
    base = load_config(text=ENSEMBLE_TEXT)
    reseeded = load_config(text=ENSEMBLE_TEXT, overrides={"noise.seed": 12})
    assert reseeded.base_seed == 12
    assert base.config_hash != reseeded.config_hash
    slower = load_config(text=ENSEMBLE_TEXT.replace("sim.dt = 2e-3", "sim.dt = 1e-3"))
    assert base.config_hash != slower.config_hash
    # hash is the digest of the echo itself
    assert base.config_hash == hashlib.sha256(base.echo().encode()).hexdigest()


# ---------------------------------------------------------------------------
# hypothesis checks at load time
# ---------------------------------------------------------------------------

SCATTER_THEOREM_TEXT = (
    SCATTER_HEAD
    + "sim.equation = snls\n"
    + "noise.g_kind = constant\n"
    + "scatter.checkpoints = 0.02, 0.04, 0.06\n"
    + "scatter.theorem = sigma_scattering\n"
)


def test_scatter_hypothesis_warning_and_strict_escalation():
    config = load_config(text=SCATTER_THEOREM_TEXT)
    assert len(config.warnings) == 1
    msg = config.warnings[0]
    assert "sigma_scattering" in msg and "hypotheses are unmet" in msg
    assert "decay fails" in msg  # constant envelope never decays
    with pytest.raises(ConfigError, match="strict mode"):
        load_config(text=SCATTER_THEOREM_TEXT, strict=True)


def test_scatter_window_failure_is_named():
    text = SCATTER_THEOREM_TEXT.replace(
        "scatter.theorem = sigma_scattering", "scatter.theorem = h1_scattering"
    ).replace("noise.g_kind = constant", "noise.g_kind = power_law")
    config = load_config(text=text)
    assert any("window fails" in w for w in config.warnings)


@pytest.mark.parametrize("g_kind, warned", [("power_law", True), ("indicator", False),
                                             ("zero", False)])
def test_scatter_theorem_that_applies_warns_of_nothing(g_kind, warned):
    # at dim 1 and 2*sigma = 4, h1_scattering's window holds and it needs alpha > 1:
    # g_alpha = 0.5 fails a power law, while indicator and zero envelopes decay at once
    text = (SCATTER_THEOREM_TEXT.replace("sim.sigma = 1.0", "sim.sigma = 2.0")
            .replace("noise.g_kind = constant", f"noise.g_kind = {g_kind}\nnoise.g_alpha = 0.5")
            .replace("sigma_scattering", "h1_scattering"))
    warnings = load_config(text=text).warnings
    assert bool(warnings) == warned
    if warned:
        assert "effective alpha = 0.5, needs > 1" in warnings[0]
    else:
        assert load_config(text=text, strict=True).warnings == ()


def test_effective_alpha_of_each_envelope():
    assert _effective_alpha(None) == math.inf
    assert _effective_alpha(NoiseSpec(phi_kind="zero", g_kind="power_law")) == math.inf
    for g_kind in ("zero", "indicator"):
        assert _effective_alpha(NoiseSpec(g_kind=g_kind, g_alpha=0.5)) == math.inf
    assert _effective_alpha(NoiseSpec(g_kind="constant", g_constant=0.0)) == math.inf
    assert _effective_alpha(NoiseSpec(g_kind="constant")) == 0.0
    assert _effective_alpha(NoiseSpec(g_kind="power_law", g_alpha=0.5)) == 0.5


def test_scatter_theorem_accepts_every_name_classify_regime_checks():
    names = [check.name for check in classify_regime(1, 3.0, 3.0).checks]
    for name in names:
        text = SCATTER_THEOREM_TEXT.replace("sigma_scattering", name)
        assert load_config(text=text).scatter.theorem == name
    with pytest.raises(ConfigError, match="scatter.theorem"):
        load_config(text=SCATTER_THEOREM_TEXT.replace("sigma_scattering", "L2_scattering"))


def test_growth_fit_warns_on_small_ensembles():
    text = GROWTH_HEAD.replace("ensemble.size = 256", "ensemble.size = 8")
    text += "growth.tau_grid = 0.05, 0.1, 0.2\n"
    config = load_config(text=text)
    assert any("at least 200 paths" in w for w in config.warnings)
    with pytest.raises(ConfigError, match="strict mode"):
        load_config(text=text, strict=True)


def test_growth_warning_threshold_is_growth_fit_default_floor():
    # the load-time warning fires exactly below the paths growth_fit wants by default
    assert inspect.signature(growth_fit).parameters["min_paths"].default == GROWTH_FIT_PATHS
    for size, warned in ((GROWTH_FIT_PATHS - 1, True), (GROWTH_FIT_PATHS, False)):
        text = GROWTH_HEAD.replace("ensemble.size = 256", f"ensemble.size = {size}")
        config = load_config(text=text + "growth.tau_grid = 0.05, 0.1, 0.2\n")
        assert any(f"least {GROWTH_FIT_PATHS} paths" in w for w in config.warnings) == warned


# ---------------------------------------------------------------------------
# per-path seeding
# ---------------------------------------------------------------------------


def test_with_path_seed_is_deterministic_and_distinct():
    config = load_config(text=ENSEMBLE_TEXT)
    sims = [with_path_seed(config, i) for i in range(6)]
    seeds = [s.noise.seed for s in sims]
    assert len(set(seeds)) == 6
    assert seeds == [with_path_seed(config, i).noise.seed for i in range(6)]
    # only the seed changes
    for s in sims:
        assert s.dt == config.sim.dt
        assert s.noise.phi_amplitude == config.noise.phi_amplitude


def test_with_path_seed_requires_a_noisy_kind():
    config = load_config(
        text="experiment.kind = regimes\nregimes.dim = 1\n"
        "regimes.two_sigma = 3.0\nregimes.alpha = 3.0\n"
    )
    with pytest.raises(ConfigError, match="seeded paths"):
        with_path_seed(config, 0)


def test_sample_ensemble_paths_reproducible():
    spec = NoiseSpec(seed=5)
    a = sample_ensemble_paths(spec, 3, 1.0, 1e-2)
    b = sample_ensemble_paths(spec, 3, 1.0, 1e-2)
    seeds = {p.spec.seed for p in a}
    assert len(seeds) == 3
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.increments, pb.increments)


# ---------------------------------------------------------------------------
# report artifacts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "x",
    [0.0, -0.0, 1.0 / 3.0, math.pi, 6.5e-8, 1e-300, -7.25, 123456789.123456789],
)
def test_format_float_roundtrips_exactly(x):
    assert float(format_float(x)) == x


def _small_noisy_trajectory():
    config = load_config(text=SNLS_TEXT)
    u0 = make_initial(config.initial, config.grid)
    return evolve(config.sim, u0), config


def test_series_csv_roundtrips_bit_exactly(tmp_path):
    traj, config = _small_noisy_trajectory()
    written = emit_report(traj, tmp_path, config)
    cols = load_series_csv(written["series.csv"])
    assert np.array_equal(cols["time"], traj.times)
    for name, arr in traj.series.items():
        assert np.array_equal(cols[name], arr, equal_nan=True)
    for name, arr in traj.budget.items():
        assert np.array_equal(cols[f"budget_{name}"], arr, equal_nan=True)


def test_manifest_carries_digests_and_no_timestamps(tmp_path):
    traj, config = _small_noisy_trajectory()
    written = emit_report(traj, tmp_path, config)
    manifest = json.loads(written["manifest.json"].read_text())
    assert set(manifest) == {
        "result_type",
        "code_version",
        "files",
        "detail",
        "experiment_kind",
        "config_hash",
        "base_seed",
        "config_echo",
    }
    assert manifest["result_type"] == "Trajectory"
    assert manifest["experiment_kind"] == "simulate"
    assert manifest["config_hash"] == config.config_hash
    assert "manifest.json" not in manifest["files"]
    for name, digest in manifest["files"].items():
        actual = hashlib.sha256(written[name].read_bytes()).hexdigest()
        assert actual == digest, name


def test_identical_runs_emit_identical_bytes(tmp_path):
    traj1, config1 = _small_noisy_trajectory()
    traj2, config2 = _small_noisy_trajectory()
    w1 = emit_report(traj1, tmp_path / "a", config1)
    w2 = emit_report(traj2, tmp_path / "b", config2)
    assert set(w1) == set(w2)
    for name in w1:
        assert w1[name].read_bytes() == w2[name].read_bytes(), name


def test_emit_report_rejects_unknown_result(tmp_path):
    _, config = _small_noisy_trajectory()
    with pytest.raises(TypeError, match="no report serializer"):
        emit_report(object(), tmp_path, config)


def test_csv_text_refuses_columns_of_unequal_length():
    with pytest.raises(ValueError, match="differ in length"):
        _csv_text({"time": [0.0, 0.5, 1.0], "mass": np.ones(2)})


def test_load_series_csv_parses_each_cell_as_float_does(tmp_path):
    """One np.array call reads the cells to the bits float() gives each."""
    values = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0 / 3.0, 1e300, -7.25,
              math.inf, -math.inf, math.nan]
    path = tmp_path / "edge.csv"
    path.write_text(_csv_text({"x": values, "y": values[::-1]}))
    cols = load_series_csv(path)
    for name, column in (("x", values), ("y", values[::-1])):
        want = np.array([float(format_float(v)) for v in column])
        assert cols[name].tobytes() == want.tobytes(), name


def test_csv_with_header_and_no_rows_reads_back_as_empty_columns(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(_csv_text({"time": [], "mass": np.empty(0), "slope": ()}))
    cols = load_series_csv(path)
    assert list(cols) == ["time", "mass", "slope"]
    assert all(col.shape == (0,) and col.dtype == float for col in cols.values())


def test_load_series_csv_missing_file(tmp_path):
    with pytest.raises(ReportIOError, match="cannot read"):
        load_series_csv(tmp_path / "absent.csv")


# ---------------------------------------------------------------------------
# ensembles: worker-count invisibility and failure attribution
# ---------------------------------------------------------------------------


def test_worker_count_never_changes_results(tmp_path):
    serial = load_config(text=ENSEMBLE_TEXT)
    pooled = load_config(text=ENSEMBLE_TEXT, overrides={"ensemble.workers": 2})
    r1 = run_ensemble(serial)
    r2 = run_ensemble(pooled)
    assert r1.seeds == r2.seeds
    assert np.array_equal(r1.times, r2.times)
    for name in r1.functional_names:
        assert np.array_equal(r1.per_path[name], r2.per_path[name], equal_nan=True)
        for stat in ("mean", "var", "min", "max", "running_sup_mean"):
            assert np.array_equal(
                r1.aggregates[name][stat], r2.aggregates[name][stat], equal_nan=True
            )
    assert np.array_equal(r1.mass_change, r2.mass_change)
    assert np.array_equal(r1.mass_residuals, r2.mass_residuals)
    # and the artifacts agree byte for byte
    w1 = emit_report(r1, tmp_path / "serial", serial)
    w2 = emit_report(r2, tmp_path / "pooled", pooled)
    for name in w1:
        assert w1[name].read_bytes() == w2[name].read_bytes(), name


def test_trajectory_views_expose_per_path_series():
    result = run_ensemble(load_config(text=ENSEMBLE_TEXT))
    views = result.trajectory_views()
    assert len(views) == result.size
    for i, view in enumerate(views):
        assert np.array_equal(view.times, result.times)
        assert np.array_equal(view.series["mass"], result.per_path["mass"][i])


@pytest.mark.parametrize("workers", [1, 2])
def test_pool_map_reports_failing_index(workers):
    with pytest.raises(EnsembleError, match="path 2 failed"):
        pool_map(math.sqrt, [1.0, 4.0, -9.0, 16.0], workers)


def test_pool_map_validates_workers():
    with pytest.raises(ValueError, match="workers"):
        pool_map(math.sqrt, [1.0], 0)


def test_pool_map_starts_no_more_processes_than_items(monkeypatch):
    import concurrent.futures

    sizes = []

    class RecordingPool:  # runs each task at submit; starts no process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, item):
            future = concurrent.futures.Future()
            future.set_result(fn(item))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert pool_map(math.sqrt, [9.0, 4.0], 8) == [3.0, 2.0]
    assert sizes == [2]


def test_run_ensemble_requires_an_ensemble_kind():
    config = load_config(text=SIM_TEXT)
    with pytest.raises(ValueError, match="ensemble"):
        run_ensemble(config)


# ---------------------------------------------------------------------------
# selftest battery
# ---------------------------------------------------------------------------


def test_selftest_passes_on_the_reference_grid():
    report = run_selftest(64)
    assert report.passed
    assert report.warnings == ()
    assert {c.name for c in report.checks} == {
        "gaussian_propagator",
        "unitarity",
        "group_law",
        "plane_wave",
        "j_identity",
        "dilation_commutation",
        "ito_isometry",
        "mass_conservation",
    }


def test_selftest_relaxes_tolerances_below_the_resolved_regime():
    report = run_selftest(16)
    assert report.passed
    assert any("relaxed tolerance tier" in w for w in report.warnings)
    tol16 = {c.name: c.tolerance for c in report.checks}
    tol64 = {c.name: c.tolerance for c in run_selftest(64).checks}
    assert tol16["gaussian_propagator"] > tol64["gaussian_propagator"]
    assert tol16["unitarity"] == tol64["unitarity"]


def test_selftest_fault_injection_is_caught():
    report = run_selftest(64, fault="propagator_sign")
    assert not report.passed
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == ["gaussian_propagator"]


def test_selftest_rejects_bad_arguments():
    with pytest.raises(ValueError, match="power of two"):
        run_selftest(4)
    with pytest.raises(ValueError, match="power of two"):
        run_selftest(12)
    with pytest.raises(ValueError, match="fault"):
        run_selftest(64, fault="gremlins")


# ---------------------------------------------------------------------------
# CLI: artifacts on success, exit codes on failure
# ---------------------------------------------------------------------------


def test_cli_simulate_writes_artifacts(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SIM_TEXT)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "# effective configuration" in captured.out
    assert "# config hash" in captured.out
    assert (out / "series.csv").is_file()
    assert (out / "manifest.json").is_file()
    assert (out / "summary.txt").is_file()
    assert f"wrote {out / 'series.csv'}" in captured.out


def test_cli_selftest_runs_without_a_config(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "experiment.kind = selftest\nselftest.points = 32\n")
    out = tmp_path / "st"
    code = main(["selftest", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "resolved regime" in captured.err  # N=32 resolution warning
    assert (out / "selftest.csv").is_file()
    assert "pass" in (out / "summary.txt").read_text()


def test_cli_tail_decay_smoke(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TAIL_HEAD)
    out = tmp_path / "tail"
    code = main(["tail-decay", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "slopes.csv").is_file() and (out / "grid.csv").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["detail"]["paths"] == 3
    assert math.isfinite(manifest["detail"]["median_slope"])


def test_cli_scatter_smoke(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path, SCATTER_HEAD + "scatter.checkpoints = 0.02, 0.04, 0.06\n"
    )
    out = tmp_path / "sc"
    code = main(["scatter-test", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "differences.csv").is_file()
    assert "monotone decay" in (out / "summary.txt").read_text()


def test_cli_growth_smoke(tmp_path, capsys):
    text = (
        GROWTH_HEAD.replace("ensemble.size = 256", "ensemble.size = 3")
        + "growth.tau_grid = 0.05, 0.1, 0.2\n"
    )
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "gr"
    code = main(["growth-fit", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "predicted exponent" in captured.out
    assert "at least 200 paths" in captured.err
    assert (out / "growth.csv").is_file()


def test_cli_regimes_smoke(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        "experiment.kind = regimes\nregimes.dim = 1\n"
        "regimes.two_sigma = 3.0\nregimes.alpha = 3.0\n",
    )
    out = tmp_path / "rg"
    code = main(["regimes", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    summary = (out / "summary.txt").read_text()
    assert "class" in summary and "sigma_scattering" in summary


def test_cli_regimes_names_a_theorem_that_needs_small_data(tmp_path):
    # at dim 1 and 2*sigma = 4, sigma_scattering applies for small data only
    cfg = _write_cfg(
        tmp_path,
        "experiment.kind = regimes\nregimes.dim = 1\n"
        "regimes.two_sigma = 4.0\nregimes.alpha = 3.0\n",
    )
    out = tmp_path / "rg"
    assert main(["regimes", "--config", str(cfg), "--out", str(out)]) == 0
    verdicts = dict(line.split(None, 1) for line in (out / "summary.txt").read_text().splitlines()
                    if line.split(None, 1)[0] in ("sigma_scattering", "h1_scattering"))
    assert verdicts == {"sigma_scattering": "applies (small data required)",
                        "h1_scattering": "applies"}


@pytest.mark.parametrize(
    "argv_tail, fragment",
    [
        (["simulate"], "--config is required"),
        (["simulate", "--config", "{missing}"], "not found"),
        (["ensemble", "--config", "{sim}"], "subcommand"),
        (["simulate", "--config", "{bad}"], "unknown key"),
        (["simulate", "--config", "{sim}", "--bogus"], "usage:"),
    ],
)
def test_cli_config_errors_exit_1(tmp_path, capsys, argv_tail, fragment):
    paths = {
        "{missing}": str(tmp_path / "absent.cfg"),
        "{sim}": str(_write_cfg(tmp_path, SIM_TEXT, "sim.cfg")),
        "{bad}": str(_write_cfg(tmp_path, SIM_TEXT + "grid.pointz = 1\n", "bad.cfg")),
    }
    argv = [paths.get(a, a) for a in argv_tail]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err
    assert fragment in captured.err


def test_cli_strict_turns_warnings_into_exit_1(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SCATTER_THEOREM_TEXT)
    code = main(["scatter-test", "--config", str(cfg), "--strict"])
    captured = capsys.readouterr()
    assert code == 1
    assert "strict mode" in captured.err


@pytest.mark.parametrize("kind, text, message", [
    # |u|² of amplitude-1e200 data overflows, so the first recorded functionals are not finite
    ("simulate", SIM_TEXT, "non-finite functionals after step 0"),
    # scatter-test's plan records the mass alone, even on a full record, so it
    # forms no functional that overflows at step 0: the field fails at step 1
    ("scatter-test", SCATTER_HEAD + "scatter.checkpoints = 0.02, 0.04, 0.06\n",
     "non-finite field after step 1 of 60"),
])
def test_cli_numerical_failure_exits_2(kind, text, message, tmp_path, capsys):
    assert "sim.record" not in text  # the default, full
    cfg = _write_cfg(tmp_path, text.replace("initial.amplitude = 0.7",
                                            "initial.amplitude = 1e200"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([kind, "--config", str(cfg), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert "numerical error" in captured.err
    assert message in captured.err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_cli_unwritable_output_exits_3(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    cfg = _write_cfg(tmp_path, SIM_TEXT)
    code = main(["simulate", "--config", str(cfg), "--out", str(blocker / "sub")])
    captured = capsys.readouterr()
    assert code == 3
    assert "io error" in captured.err


def test_cli_version_reports_and_exits(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "snlslab" in capsys.readouterr().out


def test_cli_seed_override_reaches_the_run(tmp_path):
    cfg = _write_cfg(tmp_path, ENSEMBLE_TEXT)
    out1, out2 = tmp_path / "s11", tmp_path / "s12"
    assert main(["ensemble", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["ensemble", "--config", str(cfg), "--seed", "12", "--out", str(out2)]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["base_seed"] == "11" and m2["base_seed"] == "12"
    assert m1["config_hash"] != m2["config_hash"]
    assert m1["detail"]["seeds"] != m2["detail"]["seeds"]
