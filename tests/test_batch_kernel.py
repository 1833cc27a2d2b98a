"""The path-batched Strang kernel against the per-path runs it replaced.

Row p of a batch must be bit-identical to the batch of one made of row
p's inputs, for every equation kind on a 1-d and a 2-d grid, and a run
must not depend on how many steps its recorder holds per chunk. The
digests pin what the former one-path-at-a-time integrator produced for
one small case per kind, and the ensemble digests pin the emitted CSVs,
so a change of the numbers shows here.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

import snlslab.dynamics as dynamics
import snlslab.ensemble as ensemble
import snlslab.grids as grids
from snlslab.analysis import GROWTH_SERIES, growth_fit
from snlslab.config import InitialSpec, load_config, make_initial, with_path_seed
from snlslab.dynamics import BatchRun, PathError, RecordPlan, SimConfig, evolve, evolve_batch
from snlslab.ensemble import EnsembleError, SeriesView, run_ensemble
from snlslab.functionals import (FUNCTIONAL_NAMES, FunctionalRecord, compute_functionals,
                                 functional_columns, ito_mass_budget)
from snlslab.grids import Field, GridSpec
from snlslab.noise import NoisePath, NoiseSpec, sample_path
from snlslab.reports import emit_report

KINDS = ("deterministic", "snls_light", "snls_full", "snls_full_s075",
         "random_shifted", "transformed")

#: digest(evolve(...)) of each case, recorded with the per-path integrator
PINNED = {
    ("deterministic", 1): "04e8dfa265d9ed00086b7e931226e5b0fbb7f78d05d1e509ec6ca87e7fe8490e",
    ("snls_light", 1): "983edc4bf9fdabc04cc4dcf6d29f8876bc0941ad508cc3c2aaec57d260d4de90",
    ("snls_full", 1): "5a4ef186cfd1a1f069b5518d17a7efd9807d59bb2b77340a3b1a48b2ef8855f0",
    ("snls_full_s075", 1): "288669ce6cfafb66048686d941fa40b51e351547a9ede221f7236a4713f98104",
    ("random_shifted", 1): "71ac6177474efe5422fc23ef0c2796ff6b49676354088539d9f2483ff967fd4b",
    ("transformed", 1): "5dcc4f6c8749188e9cab703d55b3dd79a9d44d16ac18440fd962072d9e396df0",
    ("deterministic", 2): "c6cf7a75ce3e27c11cf7c376563359a4074e7c7afde56cffc04f742b4f4d6415",
    ("snls_light", 2): "58151f25d22f4666d5a74a475eb696bd5ea05e7377de7f8d087b8f284b906cd8",
    ("snls_full", 2): "f5bd573714336c583c12f2b43fed4d66d1729f5cb02a68d479d3806ffba7d0e0",
    ("snls_full_s075", 2): "bf2b8f985025f2f64970924edc20be83e868c530d78b1d123ab180f8045d0732",
    ("random_shifted", 2): "94fbd4e2c4ddb84b2c67ed32bcd5daf9524bb82473728e512bf2778b0d5426da",
    ("transformed", 2): "911bc16e73f5ffc803dfff83c286c2c496ff91dc45c76fced6ec5d86c7662892",
}

CASES = [(kind, dim) for dim in (1, 2) for kind in KINDS]


def _config(kind: str, dim: int) -> SimConfig:
    grid = GridSpec(dim, 64 if dim == 1 else 32, 24.0)
    base = dict(grid=grid, dt=0.01, t_end=0.2, snapshot_stride=5)
    if kind == "deterministic":
        return SimConfig(sigma=1.0, equation="deterministic", record="full", **base)
    if kind.startswith("snls"):
        sigma = 0.75 if kind.endswith("s075") else 1.0
        noise = NoiseSpec(phi_kind="gaussian_times_poly" if sigma != 1.0 else "gaussian",
                          phi_amplitude=0.5, g_kind="power_law", g_alpha=1.0, seed=11)
        record = "light" if kind == "snls_light" else "full"
        return SimConfig(sigma=sigma, equation="snls", noise=noise, record=record, **base)
    if kind == "random_shifted":
        return SimConfig(sigma=1.0, equation="random_shifted", record="full", **base)
    return SimConfig(sigma=0.75, equation="transformed", record="full", **base)


def _initial(grid: GridSpec, row: int) -> Field:
    amp = 1.5 + 0.1 * row
    return Field.from_function(
        grid, lambda *xs: amp * np.exp(-0.5 * sum(x * x for x in xs)) * (1.0 + 0.2j * xs[0]))


def _shift(grid: GridSpec, steps: int, row: int) -> list[Field]:
    scale = 0.3 + 0.1 * row
    return [
        Field.from_function(grid, lambda *xs, k=k: scale * (k + 1) / (steps + 1)
                            * np.exp(-0.5 * sum(x * x for x in xs) + 0.7j * k))
        for k in range(steps + 1)
    ]


def _path(cfg: SimConfig, row: int) -> NoisePath:
    return sample_path(replace(cfg.noise, seed=cfg.noise.seed + row), cfg.t_end, cfg.dt)


def _batch(kind: str, dim: int, rows: list[int]):
    cfg = _config(kind, dim)
    u0 = [_initial(cfg.grid, r) for r in rows]
    if kind.startswith("snls"):
        return evolve_batch(cfg, u0, [_path(cfg, r) for r in rows])
    if kind in ("random_shifted", "transformed"):
        return evolve_batch(cfg, u0, shifts=[_shift(cfg.grid, cfg.steps, r) for r in rows])
    return evolve_batch(cfg, u0)


def _evolve(kind: str, dim: int):
    cfg = _config(kind, dim)
    u0 = _initial(cfg.grid, 0)
    if kind.startswith("snls"):
        return evolve(cfg, u0, path=_path(cfg, 0))
    if kind in ("random_shifted", "transformed"):
        return evolve(cfg, u0, shift=_shift(cfg.grid, cfg.steps, 0))
    return evolve(cfg, u0)


def _digest(traj) -> str:
    h = hashlib.sha256()
    for group in (traj.series, traj.budget, traj.monitors):
        for key in sorted(group):
            h.update(key.encode())
            h.update(np.ascontiguousarray(group[key], dtype="<f8").tobytes())
    h.update("\n".join(traj.warnings).encode())
    h.update(np.ascontiguousarray(traj.final.values, dtype="<c16").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind,dim", CASES)
def test_evolve_matches_pinned_digest(kind, dim):
    traj = _evolve(kind, dim)
    assert traj.warnings  # the cases are coarse enough to exercise the monitors
    assert _digest(traj) == PINNED[(kind, dim)]


def _assert_same_run(mine, alone, row):
    for group in ("series", "budget", "monitors"):
        ours, theirs = getattr(mine, group), getattr(alone, group)
        assert list(ours) == list(theirs)
        for key in ours:
            assert ours[key].tobytes() == theirs[key].tobytes(), (group, key, row)
    assert mine.warnings == alone.warnings
    assert mine.final.values.tobytes() == alone.final.values.tobytes()


@pytest.mark.parametrize("kind,dim", CASES)
def test_batch_rows_equal_batches_of_one(kind, dim):
    three = _batch(kind, dim, [0, 1, 2])
    assert three.size == 3
    for row in range(3):
        mine = three.trajectory(row)
        _assert_same_run(mine, _batch(kind, dim, [row]).trajectory(0), row)
        if mine.path is not None:
            assert mine.config.noise == mine.path.spec
    assert _digest(three.trajectory(0)) == PINNED[(kind, dim)]


@pytest.mark.parametrize("kind", ["deterministic", "snls_full"])
def test_kept_snapshots_of_every_row_equal_that_rows_own_evolve(kind):
    """A batch that keeps its snapshots holds a (paths, points, *grid)
    array; row p's fields and monitors are byte for byte those of row p's
    own evolve. A batch that does not keep them holds none."""
    cfg = _config(kind, 1)
    u0 = [_initial(cfg.grid, r) for r in range(3)]
    paths = [_path(cfg, r) for r in range(3)] if kind.startswith("snls") else None
    run = dynamics._integrate(cfg, *dynamics._batch_inputs(cfg, u0, paths, None),
                              RecordPlan(snapshots=True))
    points = len(cfg.snapshot_steps())
    assert run.snapshots.shape == (3, points) + cfg.grid.shape
    for row in range(3):
        mine = run.trajectory(row)
        alone = evolve(mine.config, u0[row], path=None if paths is None else paths[row])
        _assert_same_run(mine, alone, row)
        assert mine.snapshots.tobytes() == alone.snapshots.tobytes()
        assert len({snap.tobytes() for snap in mine.snapshots}) == points
        for t in alone.monitors["times"]:
            assert mine.snapshot_at(t).values.tobytes() == alone.snapshot_at(t).values.tobytes()
    kept_none = evolve_batch(cfg, u0, paths)
    assert kept_none.snapshots is None
    with pytest.raises(KeyError, match="the run kept no snapshot fields"):
        kept_none.trajectory(0).snapshot_at(0.0)


def test_quarter_mebibyte_batch_rows_equal_batches_of_one():
    # four 2-d 64² paths make a 256 KiB batch: from that size numpy's
    # temporary elision may swap the operands of a complex product, which
    # changes its bytes, so every product must keep its order explicitly
    cfg = replace(_config("snls_full", 2), grid=GridSpec(2, 64, 24.0))
    u0 = [_initial(cfg.grid, r) for r in range(4)]
    paths = [_path(cfg, r) for r in range(4)]
    four = evolve_batch(cfg, u0, paths)
    assert four.final.nbytes == 1 << 18
    for row in range(4):
        _assert_same_run(four.trajectory(row),
                         evolve_batch(cfg, u0[row], [paths[row]]).trajectory(0), row)


@pytest.mark.parametrize("kind", ["deterministic", "snls_light", "snls_full",
                                  "random_shifted", "transformed"])
def test_runs_leave_their_inputs_untouched(kind):
    # the kernel rotates, kicks and multiplies by the propagator in place
    # and shares |u|² across a step; none of it may reach the caller's arrays
    cfg = _config(kind, 1)
    u0 = [_initial(cfg.grid, r) for r in range(2)]
    paths = [_path(cfg, r) for r in range(2)] if kind.startswith("snls") else None
    shifts = ([_shift(cfg.grid, cfg.steps, r) for r in range(2)]
              if kind in ("random_shifted", "transformed") else None)
    inputs = [f.values for f in u0]
    inputs += [p.increments for p in paths or ()]
    inputs += [f.values for series in shifts or () for f in series]
    before = [a.copy() for a in inputs]

    evolve(cfg, u0[0], path=paths and paths[0], shift=shifts and shifts[0])
    evolve_batch(cfg, u0, paths, shifts=shifts)
    evolve_batch(cfg, u0[1], paths, shifts=shifts)
    for now, then in zip(inputs, before):
        assert now.tobytes() == then.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_sigma_ito_sum_with_zero_density_rows(dim):
    # row 1 starts from zero, so rho > 0 fails at step 0 and the sigma != 1
    # Ito sum takes its per-row masked route for the whole batch
    cfg = _config("snls_full_s075", dim)
    u0 = [_initial(cfg.grid, 0), make_initial(InitialSpec(kind="zero"), cfg.grid),
          _initial(cfg.grid, 2)]
    assert not u0[1].values.any()
    paths = [_path(cfg, r) for r in range(3)]
    three = evolve_batch(cfg, u0, paths)
    for row in range(3):
        _assert_same_run(three.trajectory(row),
                         evolve_batch(cfg, u0[row], [paths[row]]).trajectory(0), row)


def _per_row_functionals(field: Field, t: float, sigma: float, frame: str) -> FunctionalRecord:
    """The former one-field-at-a-time compute_functionals, kept as the
    reference the batched evaluator must reproduce bit for bit."""
    grid = field.grid
    dvol = grid.cell_volume
    vals = field.values
    rho = vals.real**2 + vals.imag**2
    mass = float(rho.sum()) * dvol
    virial = float((grid.radius_squared() * rho).sum()) * dvol
    potential = float((rho ** (sigma + 1.0)).sum()) * dvol
    hat = np.fft.fftn(vals)
    grads = [np.fft.ifftn(1j * k * hat) for k in grid.freqs()]
    grad_sq = 0.0
    flux = 0.0
    for x_j, gv in zip(grid.coords(), grads):
        grad_sq += float((gv.real**2 + gv.imag**2).sum()) * dvol
        flux += float((x_j * (vals * gv.conj()).imag).sum()) * dvol
    hamiltonian = 0.5 * grad_sq + potential / (2.0 * sigma + 2.0)
    if frame == "physical":
        w = 1.0 + t
        j_sq = 0.0
        for x_j, gv in zip(grid.coords(), grads):
            jv = x_j * vals - 2.0j * w * gv
            j_sq += float((jv.real**2 + jv.imag**2).sum()) * dvol
        pc_energy = j_sq + 4.0 / (sigma + 1.0) * w * w * potential
        pc_decomp = virial - 4.0 * w * flux + 8.0 * w * w * hamiltonian
        e1 = e2 = math.nan
    else:
        power = sigma * grid.dim - 2.0
        e1 = 4.0 * grad_sq + 4.0 / (sigma + 1.0) * (1.0 - t) ** power * potential
        e2 = (1.0 - t) ** (-power) * e1
        pc_energy = pc_decomp = math.nan
    return FunctionalRecord(t, mass, hamiltonian, grad_sq, potential, virial, flux,
                            pc_energy, pc_decomp, e1, e2)


@pytest.mark.parametrize("frame", ["physical", "transformed"])
@pytest.mark.parametrize("sigma", [1.0, 0.75])
@pytest.mark.parametrize("dim", [1, 2])
def test_functional_columns_match_per_row_records(dim, sigma, frame):
    grid = GridSpec(dim, 64 if dim == 1 else 32, 24.0)
    vals = np.stack([_initial(grid, r).values * np.exp(0.3j * r * grid.coords()[-1])
                     for r in range(3)])
    t = 0.35
    cols = functional_columns(grid, vals, t, sigma, frame)
    for p in range(3):
        field = Field(grid, vals[p])
        want = _per_row_functionals(field, t, sigma, frame).as_dict()
        got = compute_functionals(field, t, sigma, frame).as_dict()
        assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()
        del want["t"]
        assert sorted(cols) == sorted(want)
        row = np.array([cols[name][p] for name in want])
        assert row.tobytes() == np.array(list(want.values())).tobytes(), p


@pytest.mark.parametrize("frame", ["physical", "transformed"])
@pytest.mark.parametrize("dim", [1, 2])
def test_functional_columns_take_one_time_per_row(dim, frame):
    grid = GridSpec(dim, 64 if dim == 1 else 32, 24.0)
    vals = np.stack([_initial(grid, r).values for r in range(3)])
    times = [0.0, 0.35, 0.9]
    cols = functional_columns(grid, vals, np.array(times), 0.75, frame)
    for p, t in enumerate(times):
        alone = functional_columns(grid, vals[p:p + 1], t, 0.75, frame)
        for name, col in cols.items():
            assert col[p:p + 1].tobytes() == alone[name].tobytes(), (name, p)
    rho = vals.real**2 + vals.imag**2
    given = functional_columns(grid, vals, np.array(times), 0.75, frame, rho=rho)
    assert {k: v.tobytes() for k, v in given.items()} == {k: v.tobytes() for k, v in cols.items()}


@pytest.mark.parametrize("frame", ["physical", "transformed"])
@pytest.mark.parametrize("sigma", [1.0, 0.75])
@pytest.mark.parametrize("dim", [1, 2])
def test_subset_columns_equal_the_full_call(dim, sigma, frame):
    """A column asked for alone, or with pc_energy's growth-fit partner
    mass, has the bytes of the same column of the full call, in both
    frames (where the frame leaves it NaN too); only the named columns
    come back."""
    grid = GridSpec(dim, 64 if dim == 1 else 32, 24.0)
    vals = np.stack([_initial(grid, r).values * np.exp(0.3j * r * grid.coords()[-1])
                     for r in range(3)])
    times = np.array([0.0, 0.35, 0.9])
    rho = vals.real**2 + vals.imag**2
    full = functional_columns(grid, vals, times, sigma, frame)
    assert tuple(full) == FUNCTIONAL_NAMES
    for names in [(name,) for name in FUNCTIONAL_NAMES] + [("mass", "pc_energy")]:
        for given in (None, rho):
            cols = functional_columns(grid, vals, times, sigma, frame, rho=given, names=names)
            assert tuple(cols) == names
            for name in names:
                assert cols[name].tobytes() == full[name].tobytes(), (names, name)


def test_unknown_column_name_is_refused_by_name():
    grid = GridSpec(1, 64, 24.0)
    vals = _initial(grid, 0).values[None]
    with pytest.raises(ValueError, match=r"unknown functional columns \['energy'\]"):
        functional_columns(grid, vals, 0.0, 1.0, names=("mass", "energy"))


def test_transformed_time_check_covers_every_row():
    grid = GridSpec(1, 64, 24.0)
    vals = np.stack([_initial(grid, r).values for r in range(3)])
    functional_columns(grid, vals, np.array([0.0, 0.5, 0.99]), 1.0, "physical")
    for bad in (1.0, -0.1, math.nan):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\), got"):
            functional_columns(grid, vals, np.array([0.0, bad, 0.5]), 1.0, "transformed")


def _run_with_chunk(monkeypatch, chunk, kind, dim, u0, paths=None, shifts=None,
                    plan=RecordPlan()):
    """evolve_batch with the recorder holding `chunk` steps (None: the default cap)."""
    cfg = _config(kind, dim)
    if chunk is not None:
        rows = np.stack([f.values for f in u0])
        monkeypatch.setattr(grids, "BATCH_FIELD_BYTES", chunk * rows.nbytes)
    try:
        return evolve_batch(cfg, u0, paths, shifts=shifts, plan=plan)
    finally:
        monkeypatch.undo()


#: one step per chunk (the step-by-step order), an odd chunk that does not
#: divide the 21 partition points, and the default cap
CHUNKS = (1, 5, None)


@pytest.mark.parametrize("kind,dim", CASES)
def test_recording_independent_of_chunk(kind, dim, monkeypatch):
    cfg = _config(kind, dim)
    assert cfg.steps + 1 == 21
    u0 = [_initial(cfg.grid, r) for r in range(3)]
    if kind == "snls_full_s075":  # a zero row takes the masked sigma != 1 Ito sum
        u0[1] = make_initial(InitialSpec(kind="zero"), cfg.grid)
    paths = [_path(cfg, r) for r in range(3)] if kind.startswith("snls") else None
    shifts = ([_shift(cfg.grid, cfg.steps, r) for r in range(3)]
              if kind in ("random_shifted", "transformed") else None)
    runs = [_run_with_chunk(monkeypatch, chunk, kind, dim, u0, paths, shifts)
            for chunk in CHUNKS]
    for run in runs[1:]:
        for row in range(3):
            _assert_same_run(run.trajectory(row), runs[0].trajectory(row), row)


@pytest.mark.parametrize("chunk", [1, 3, None])
@pytest.mark.parametrize("kind", ["snls_full", "snls_full_s075"])
def test_run_without_energy_budget_keeps_every_other_byte(kind, chunk, monkeypatch):
    """A plan without the energy budget, as ensembles run, skips the energy
    Ito sums and nothing else: series, mass budget, monitors, final fields and warnings
    keep their bytes at one, three and the default steps per chunk, and the
    budget holds no energy_* entry. For sigma = 0.75 the left half phase then
    forms |u|^{2 sigma} itself, and the zero row takes the masked sigma != 1
    Ito sum in the run that keeps the budget."""
    cfg = _config(kind, 1)
    u0 = [_initial(cfg.grid, r) for r in range(3)]
    if kind == "snls_full_s075":
        u0[1] = make_initial(InitialSpec(kind="zero"), cfg.grid)
    paths = [_path(cfg, r) for r in range(3)]
    kept, skipped = (_run_with_chunk(monkeypatch, chunk, kind, 1, u0, paths,
                                     plan=RecordPlan(energy_budget=keep))
                     for keep in (True, False))
    assert set(kept.budget) == {"mass_martingale", "mass_drift", "energy_flow_drift",
                                "energy_ito_drift", "energy_martingale"}
    assert set(skipped.budget) == {"mass_martingale", "mass_drift"}
    assert any(skipped.warnings)
    for row in range(3):
        mine, full = skipped.trajectory(row), kept.trajectory(row)
        full = replace(full, budget={k: v for k, v in full.budget.items()
                                     if not k.startswith("energy_")})
        _assert_same_run(mine, full, row)


@pytest.mark.parametrize("chunk", [1, 3, None])
@pytest.mark.parametrize("kind", ["snls_full", "snls_full_s075"])
def test_run_recording_a_subset_of_series_keeps_every_other_byte(kind, chunk, monkeypatch):
    """A plan of GROWTH_SERIES, as growth fits run, records mass and pc_energy
    with the bytes of the run that records all ten; the mass budget,
    monitors, final fields and warnings keep theirs too, at one, three and
    the default steps per chunk."""
    cfg = _config(kind, 1)
    u0 = [_initial(cfg.grid, r) for r in range(3)]
    if kind == "snls_full_s075":
        u0[1] = make_initial(InitialSpec(kind="zero"), cfg.grid)
    paths = [_path(cfg, r) for r in range(3)]
    every, subset = (_run_with_chunk(monkeypatch, chunk, kind, 1, u0, paths,
                                     plan=RecordPlan(series, energy_budget=False))
                     for series in (None, ("pc_energy", "mass")))
    assert list(every.series) == list(FUNCTIONAL_NAMES)
    assert list(subset.series) == ["mass", "pc_energy"]
    assert any(subset.warnings)
    for row in range(3):
        mine, full = subset.trajectory(row), every.trajectory(row)
        full = replace(full, series={k: full.series[k] for k in ("mass", "pc_energy")})
        _assert_same_run(mine, full, row)


def test_series_outside_the_record_or_without_what_a_budget_reads_are_refused():
    cfg = _config("snls_full", 1)
    u0, paths = _initial(cfg.grid, 0), [_path(cfg, 0)]
    with pytest.raises(ValueError, match=r"series \['bogus', 'energy'\] are not recorded"):
        evolve_batch(cfg, u0, paths,
                     plan=RecordPlan(("mass", "energy", "bogus"), energy_budget=False))
    with pytest.raises(ValueError, match=r"series \['pc_energy'\] are not recorded by this "
                                         r"run \(record='light' records \['mass'\]\)"):
        evolve_batch(replace(cfg, record="light"), u0, paths,
                     plan=RecordPlan(("mass", "pc_energy")))
    with pytest.raises(ValueError, match="must include 'mass': the mass budget reads it"):
        evolve_batch(cfg, u0, paths, plan=RecordPlan(("pc_energy",), energy_budget=False))
    for kept, left_out in ((("mass", "pc_energy"), "'potential'"),
                           (("mass", "potential"), "'pc_energy'"),
                           (("mass",), "'potential', 'pc_energy'")):
        with pytest.raises(ValueError, match=rf"leaves out \[{left_out}\], which the energy "
                                             "budget reads"):
            evolve_batch(cfg, u0, paths, plan=RecordPlan(kept))
    det = _config("deterministic", 1)
    with pytest.raises(ValueError, match=r"leaves out \['potential'\]"):
        evolve_batch(det, u0, plan=RecordPlan(GROWTH_SERIES))
    run = evolve_batch(cfg, u0, paths, plan=RecordPlan(("mass", "potential", "pc_energy")))
    assert list(run.series) == ["mass", "potential", "pc_energy"]
    assert "energy_martingale" in run.budget
    mass = evolve_batch(det, u0, plan=RecordPlan(("mass",), energy_budget=False))
    assert list(mass.series) == ["mass"]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("chunk", [1, 2, 3, None])
@pytest.mark.parametrize("kick", [1e100, 1e200])
def test_overflow_inside_a_chunk_fails_at_its_step(kick, chunk, monkeypatch):
    # a kick at step 3 makes row 1's potential overflow at step 4. At 1e200
    # its field overflows at step 5 too, and that failing check flushes the
    # pending chunk; at 1e100 the field stays finite, so only the chunk's own
    # flush finds step 4, mid-chunk for 3-step chunks (steps 3-5). A run that
    # records only GROWTH_SERIES finds it in pc_energy at the same step
    cfg = _config("snls_full", 1)
    paths = [_path(cfg, r) for r in range(2)]
    huge = paths[1].increments.copy()
    huge[3] = kick
    paths[1] = NoisePath(paths[1].spec, paths[1].t_inf, paths[1].dt, huge)
    u0 = [_initial(cfg.grid, r) for r in range(2)]
    for plan in (RecordPlan(), RecordPlan(GROWTH_SERIES, energy_budget=False)):
        with pytest.raises(PathError, match=r"non-finite functionals after step 4 of 20 "
                                            r"\(t=0.04\) in path 1 of the batch") as err:
            _run_with_chunk(monkeypatch, chunk, "snls_full", 1, u0, paths, plan=plan)
        assert err.value.path == 1
    light = replace(cfg, record="light")
    if kick == 1e200:
        with pytest.raises(PathError, match=r"non-finite field after step 5 of 20 "):
            evolve_batch(light, u0, paths)
    else:
        assert np.isfinite(evolve_batch(light, u0, paths).final).all()


def _keep_recorders(patch) -> list:
    """Patch dynamics._Recorder with a subclass that lists each recorder it makes."""
    recorders = []

    class Kept(dynamics._Recorder):
        def __init__(self, *args):
            super().__init__(*args)
            recorders.append(self)

    patch.setattr(dynamics, "_Recorder", Kept)
    return recorders


@pytest.mark.parametrize("kind", KINDS)
def test_batch_series_are_the_recorders_own_tables(kind, monkeypatch):
    """A batch of several paths gets the recorder's series tables themselves,
    each (paths, steps+1), C-contiguous and read-only, and its Ito tables
    are (..., paths, steps): finish copies and transposes none of them."""
    recorders = _keep_recorders(monkeypatch)
    run = _batch(kind, 1, [0, 1, 2])
    (rec,) = recorders
    assert run.series.keys() == rec.series.keys()
    for name, col in run.series.items():
        assert np.shares_memory(col, rec.series[name]), name
        assert col.shape == (3, run.config.steps + 1) and col.flags.c_contiguous, name
        assert not col.flags.writeable, name
    if kind.startswith("snls"):
        rows = 5 if rec.track_energy else 1
        assert rec.dots.shape == (rows, 3, run.config.steps)
        assert not rec.track_energy or rec.sums.shape == (2, 3, run.config.steps)


def _poisoned_run(monkeypatch, kind, chunk, k, p, bad):
    """A 3-row evolve_batch whose field after step k has `bad` at entry 5
    of row p (before the noise kick), with `chunk` steps held per chunk
    (None: the default cap). Returns the run, or the PathError it raised,
    and its recorder."""
    cfg = _config(kind, 1)
    u0 = [_initial(cfg.grid, r) for r in range(3)]
    paths = [_path(cfg, r) for r in range(3)] if kind.startswith("snls") else None
    step, calls = dynamics._strang_step, itertools.count(1)

    def poisoned(*args):
        out = step(*args)
        if next(calls) == k:
            out[p, 5] = bad
        return out

    with monkeypatch.context() as patch:
        recorders = _keep_recorders(patch)
        patch.setattr(dynamics, "_strang_step", poisoned)
        if chunk is not None:
            patch.setattr(grids, "BATCH_FIELD_BYTES", chunk * 3 * cfg.grid.num_cells * 16)
        try:
            run = evolve_batch(cfg, u0, paths)
        except PathError as exc:
            run = exc
    return run, recorders[0]


@pytest.mark.parametrize("chunk", [1, 3, None])
@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
@pytest.mark.parametrize("kind", ["snls_full", "snls_light", "deterministic"])
def test_non_finite_field_fails_at_its_step_after_recording_the_steps_before(
        kind, bad, chunk, monkeypatch):
    """The field check read off the held |u|² raises the step-by-step
    check's PathError, naming step k and path p, once points 0..k-1 are
    recorded as a clean run records them."""
    k, p = 7, 1
    err, rec = _poisoned_run(monkeypatch, kind, chunk, k, p, bad)
    cfg = rec.config
    assert isinstance(err, PathError) and err.path == p
    assert str(err) == (f"non-finite field after step {k} of {cfg.steps} (t={k * cfg.dt:.6g}) "
                        f"in path {p} of the batch; the run was aborted")
    clean = _batch(kind, 1, [0, 1, 2])
    for name, col in clean.series.items():
        scale = cfg.grid.cell_volume if name == "mass" else 1.0  # finish scales mass
        assert (rec.series[name][:, :k] * scale).tobytes() == col[:, :k].tobytes(), name


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_finite_field_whose_density_overflows_is_not_refused(monkeypatch):
    """|1e200|² overflows, but the field is finite: the exact check lets it
    step on. At the last point the run finishes; earlier, the next step's
    infinite phase makes the field NaN, refused at that step."""
    run, _ = _poisoned_run(monkeypatch, "snls_light", 1, 20, 2, 1e200)
    assert isinstance(run, BatchRun) and np.isfinite(run.final).all()
    assert abs(run.final[2, 5]) > 1e199 and run.series["mass"][2, -1] == math.inf
    err, _ = _poisoned_run(monkeypatch, "snls_light", None, 7, 2, 1e200)
    assert isinstance(err, PathError) and err.path == 2
    assert "non-finite field after step 8 of 20 " in str(err)


def test_batch_rejects_mismatched_inputs():
    cfg = _config("snls_light", 1)
    u0 = _initial(cfg.grid, 0)
    with pytest.raises(ValueError, match="batch size"):
        evolve_batch(cfg, [u0, u0], [_path(cfg, r) for r in range(3)])
    with pytest.raises(ValueError, match="one noise path per row"):
        evolve_batch(cfg, u0)
    with pytest.raises(ValueError, match="at least one path"):
        evolve_batch(cfg, u0, [])
    with pytest.raises(ValueError, match="at least one path"):
        evolve_batch(_config("deterministic", 1), [])
    other = replace(cfg.noise, g_alpha=2.0, seed=99)
    with pytest.raises(ValueError, match="path 1: its noise spec"):
        evolve_batch(cfg, u0, [_path(cfg, 0), sample_path(other, cfg.t_end, cfg.dt)])
    with pytest.raises(ValueError, match="shift"):
        evolve_batch(cfg, u0, [_path(cfg, 0)], shifts=[_shift(cfg.grid, cfg.steps, 0)])


def test_zero_length_snls_runs_on_a_path_of_no_increments():
    """t_end = 0 is a partition of zero steps: the run draws a path with no
    increments, and every budget is the single zero of its one point."""
    cfg = replace(_config("snls_full_s075", 1), t_end=0.0)
    u0 = _initial(cfg.grid, 0)
    traj = evolve(cfg, u0)
    assert traj.path is not None and traj.path.steps == 0
    assert traj.path.increments.shape == (0,)
    paths = [sample_path(replace(cfg.noise, seed=seed), 0.0, cfg.dt) for seed in (1, 2)]
    run = evolve_batch(cfg, u0, paths)
    for budget, shape in ((traj.budget, (1,)), (run.budget, (2, 1))):
        assert set(budget) == {"mass_martingale", "mass_drift", "energy_flow_drift",
                               "energy_ito_drift", "energy_martingale"}
        for col in budget.values():
            assert col.shape == shape and not col.any()
    text = (ENSEMBLE_TEXT.replace("sim.t_end = 0.04", "sim.t_end = 0")
            .replace("ensemble.size = 8", "ensemble.size = 2"))
    result = run_ensemble(load_config(text=text))
    assert not result.mass_change.any() and not result.mass_residuals.any()


ENSEMBLE_TEXT = """\
experiment.kind = ensemble
grid.points = 64
grid.box_length = 20.0
sim.sigma = 1.0
sim.dt = 2e-3
sim.t_end = 0.04
sim.equation = snls
sim.record = full
sim.snapshot_stride = 5
initial.amplitude = 0.7
noise.phi_amplitude = 0.3
noise.seed = 3
ensemble.size = 8
"""

#: SHA-256 of the emitted files, recorded with the per-path ensemble route
ENSEMBLE_PINNED = {
    "aggregates.csv": "0cab7502bd71ead9509dcb182d678e285d9203c1db11ca75860deeb223aa5e77",
    "per_path.csv": "a7db580f7abdae0183beb0588858294de0371f50028ff5c1e747ea32391767a7",
    "summary.txt": "b23fca79847055f43d9fc2b99bfbe2efbbd1bc69d1eb170d84179f3d3c2526d8",
}


def _ensemble_artifacts(tmp_path, name):
    config = load_config(text=ENSEMBLE_TEXT)
    result = run_ensemble(config)
    written = emit_report(result, tmp_path / name, config)
    return result, {key: path.read_bytes() for key, path in written.items()}


def test_ensemble_output_independent_of_batch_cap(tmp_path, monkeypatch):
    whole, whole_files = _ensemble_artifacts(tmp_path, "whole")
    monkeypatch.setattr(grids, "BATCH_FIELD_BYTES", 1)
    assert grids.batches(8, 16 * 64, 1) == [(i, i + 1) for i in range(8)]
    single, single_files = _ensemble_artifacts(tmp_path, "single")

    assert whole.seeds == single.seeds
    for name in whole.per_path:
        assert whole.per_path[name].tobytes() == single.per_path[name].tobytes()
    assert whole.mass_residuals.tobytes() == single.mass_residuals.tobytes()
    assert whole.path_warnings == single.path_warnings
    assert whole_files == single_files
    for name, digest in ENSEMBLE_PINNED.items():
        assert hashlib.sha256(whole_files[name]).hexdigest() == digest


def test_ensemble_path_equals_its_own_run(monkeypatch):
    # 32 points trip the spectral-tail monitor on every path; one path also
    # raises a second warning, so the per-path numbering is exercised
    config = load_config(text=ENSEMBLE_TEXT,
                         overrides={"grid.points": 32, "noise.phi_amplitude": 6.0})
    monkeypatch.setattr(grids, "BATCH_FIELD_BYTES", 3 * 16 * 32)
    assert grids.batches(8, 16 * 32, 1) == [(0, 3), (3, 6), (6, 8)]
    result = run_ensemble(config)
    u0 = make_initial(config.initial, config.grid)

    warnings = []
    for i in range(config.ensemble_size):
        sim = with_path_seed(config, i)
        alone = evolve(sim, u0)
        assert result.seeds[i] == sim.noise.seed
        assert result.times.tobytes() == alone.times.tobytes()
        assert set(result.per_path) == set(alone.series)
        for name, block in result.per_path.items():
            assert block[i].tobytes() == alone.series[name].tobytes(), (i, name)
        residual = np.float64(ito_mass_budget(alone).residual)
        assert result.mass_residuals[i].tobytes() == residual.tobytes()
        warnings += [(i, w) for w in alone.warnings]
    assert result.path_warnings == tuple(f"path {i}: {w}" for i, w in warnings)
    counts = [sum(j == i for j, _ in warnings) for i in range(config.ensemble_size)]
    assert min(counts) >= 1 and max(counts) > min(counts)


GROWTH_TEXT = (ENSEMBLE_TEXT.replace("experiment.kind = ensemble", "experiment.kind = growth-fit")
               + "growth.tau_grid = 0.01, 0.02, 0.04\n")


def test_growth_fits_record_only_the_series_they_read():
    """A growth fit records GROWTH_SERIES and an ensemble every series; the
    growth fit's series, mass residuals and warnings are the bytes of the
    ensemble that records all ten."""
    every = run_ensemble(load_config(text=ENSEMBLE_TEXT))
    assert every.functional_names == FUNCTIONAL_NAMES
    growth = run_ensemble(load_config(text=GROWTH_TEXT))
    assert growth.functional_names == GROWTH_SERIES and tuple(growth.aggregates) == GROWTH_SERIES
    for name in GROWTH_SERIES:
        assert growth.per_path[name].tobytes() == every.per_path[name].tobytes(), name
    assert growth.mass_residuals.tobytes() == every.mass_residuals.tobytes()
    assert growth.path_warnings == every.path_warnings


def test_growth_fit_reads_only_the_growth_series():
    """growth_fit given views that hold only GROWTH_SERIES (a dict raises
    KeyError on any other series) fits what it fits on all ten."""
    result = run_ensemble(load_config(text=ENSEMBLE_TEXT))
    views = result.trajectory_views()
    assert set(views[0].series) == set(FUNCTIONAL_NAMES)
    narrow = [SeriesView(v.times, {name: v.series[name] for name in GROWTH_SERIES})
              for v in views]
    taus = (0.01, 0.02, 0.04)
    want, got = growth_fit(views, taus, min_paths=2), growth_fit(narrow, taus, min_paths=2)
    assert got.mean_running_sup.tobytes() == want.mean_running_sup.tobytes()
    assert (got.slope, got.intercept) == (want.slope, want.intercept)


def test_batches_respect_cap_and_workers(monkeypatch):
    monkeypatch.setattr(grids, "BATCH_FIELD_BYTES", 4 * 100)
    assert grids.batches(10, 100, 1) == [(0, 4), (4, 8), (8, 10)]
    assert grids.batches(10, 100, 4) == [(0, 3), (3, 6), (6, 9), (9, 10)]
    assert grids.batches(3, 100, 8) == [(0, 1), (1, 2), (2, 3)]
    assert grids.batches(5, 1000, 1) == [(i, i + 1) for i in range(5)]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("workers", [1, 2])
def test_ensemble_error_names_failing_path(monkeypatch, workers):
    # worker processes see the patched sampler only if the pool forks
    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched sampler reaches workers only under the fork start method")
    config = load_config(text=ENSEMBLE_TEXT, overrides={"ensemble.workers": workers})
    doomed = ensemble.with_path_seed(config, 5).noise
    real = ensemble.sample_path

    def sampler(spec, t_inf, dt):
        path = real(spec, t_inf, dt)
        if spec != doomed:
            return path
        huge = path.increments.copy()
        huge[3] = 1e200
        return NoisePath(spec, path.t_inf, path.dt, huge)

    monkeypatch.setattr(ensemble, "sample_path", sampler)
    # the field after step 4 is finite (~1e200) but its potential overflows,
    # so the recorded functionals fail one step before the field would
    with pytest.raises(EnsembleError,
                       match=r"path 5 failed: non-finite functionals after step 4 of 20 "):
        run_ensemble(config)


def test_ensemble_error_outside_one_row_names_the_batch_first_path(monkeypatch):
    """An error that is no PathError is not tied to a row: it names the
    first path of its batch, here path 4 of the batch of paths 4 and 5."""
    config = load_config(text=ENSEMBLE_TEXT)
    doomed = ensemble.with_path_seed(config, 5).noise
    real = ensemble.sample_path

    def sampler(spec, t_inf, dt):
        if spec == doomed:
            raise ValueError("no path for this seed")
        return real(spec, t_inf, dt)

    monkeypatch.setattr(ensemble, "sample_path", sampler)
    monkeypatch.setattr(grids, "BATCH_FIELD_BYTES", 2 * 16 * config.grid.num_cells)
    with pytest.raises(EnsembleError, match=r"^path 4 failed: no path for this seed$"):
        run_ensemble(config)


def test_zero_length_ensemble_draws_no_paths():
    config = load_config(text=ENSEMBLE_TEXT, overrides={"sim.t_end": 0.0})
    result = run_ensemble(config)
    assert result.per_path["mass"].shape == (8, 1)
    assert not result.mass_residuals.any()
