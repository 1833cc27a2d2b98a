"""Experiment kinds and load-time validation.

Every kind is one ``KINDS`` record; the CLI builds its subcommands from
those records and keeps one driver per kind. A config that names a kind
is either run or refused at load time with exit 1 and the offending key
in the message: a bad value never surfaces mid-run as a numerical
failure (exit 2). The canonical echo and config hash of one small config
per kind are pinned, so a change to how configs load cannot move them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snlslab import cli
from snlslab.config import _SCHEMA, KINDS, ConfigError, load_config
from snlslab.noise import partition_steps

_SIM_HEAD = """\
grid.points = 64
grid.box_length = 24.0
sim.sigma = 1.0
sim.equation = snls
initial.amplitude = 0.7
noise.phi_amplitude = 0.3
"""

#: one small valid config per kind; each runs in well under a second
TINY = {
    "simulate": "experiment.kind = simulate\n" + _SIM_HEAD
    + "sim.dt = 5e-3\nsim.t_end = 0.02\nsim.snapshot_stride = 2\n",
    "ensemble": "experiment.kind = ensemble\n" + _SIM_HEAD
    + "sim.dt = 5e-3\nsim.t_end = 0.02\nsim.record = light\nensemble.size = 2\n",
    "tail-decay": """\
experiment.kind = tail-decay
grid.points = 16
grid.box_length = 16.0
noise.g_kind = power_law
noise.g_alpha = 3.0
tail.t_inf = 4.0
tail.dt = 0.1
tail.paths = 2
""",
    "scatter-test": "experiment.kind = scatter-test\n" + _SIM_HEAD
    + "sim.dt = 5e-3\nsim.t_end = 0.03\nsim.snapshot_stride = 2\n"
    "scatter.checkpoints = 0.01, 0.02, 0.03\n",
    "growth-fit": "experiment.kind = growth-fit\n" + _SIM_HEAD
    + "sim.dt = 1e-2\nsim.t_end = 0.2\nensemble.size = 2\n"
    "growth.tau_grid = 0.05, 0.1, 0.2\n",
    "regimes": "experiment.kind = regimes\nregimes.dim = 1\n"
    "regimes.two_sigma = 3.0\nregimes.alpha = 3.0\n",
    "selftest": "experiment.kind = selftest\nselftest.points = 16\n",
}


def _parse(text: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in text.splitlines() if line)


def _render(values: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def _run_cli(kind: str, text: str) -> tuple[int, str]:
    """Run one subcommand on a config text; returns (exit code, stderr)."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([kind, "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    return code, err.getvalue()


# ---------------------------------------------------------------------------
# one record per kind
# ---------------------------------------------------------------------------


def test_cli_drivers_and_subcommands_follow_kinds():
    assert list(cli._DRIVERS) == list(KINDS)
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert list(sub.choices) == list(KINDS)


def test_required_keys_are_the_undefaulted_keys_of_the_sections_read():
    required = {
        name: {k for k, (_, d) in _SCHEMA.items()
               if d is None and k != "experiment.kind" and kind.reads(k)}
        for name, kind in KINDS.items()
    }
    assert required == {
        "simulate": {"sim.sigma", "sim.t_end"},
        "ensemble": {"sim.sigma", "sim.t_end"},
        "tail-decay": {"tail.t_inf"},
        "scatter-test": {"sim.sigma", "sim.t_end", "scatter.checkpoints"},
        "growth-fit": {"sim.sigma", "sim.t_end", "growth.tau_grid"},
        "regimes": {"regimes.dim", "regimes.two_sigma", "regimes.alpha"},
        "selftest": set(),
    }
    for name, keys in required.items():
        for key in keys:
            values = _parse(TINY[name])
            del values[key]
            with pytest.raises(ConfigError, match=f"{key}: missing required key"):
                load_config(text=_render(values))


# ---------------------------------------------------------------------------
# echo and hash: byte-stable
# ---------------------------------------------------------------------------

PINNED_HASHES = {
    "simulate": "02f17ed0cdf77d0e68b9e9f950bf11a9f8dead905ba818192e94f6e9b007bbbe",
    "ensemble": "5a436434097c481e903aab52137d4335db6435b5417877957938ec7a7460be69",
    "tail-decay": "b694333c61eb5afd228fd82e1503430b6532a7becd013485be66581a2078aa0e",
    "scatter-test": "caa32df35918aba1fd6d5c56dbdd6e8fa5d21333cab52facf9f00a7e36c764b5",
    "growth-fit": "018e843264eed3657d6709a837915c9891e2e7d2136d5361182219521fbb2c9b",
    "regimes": "3dfd4e79cca8d507347579991a09653d4b6716a39a96b9564995176cd12abe88",
    "selftest": "97a238e10c965383a575891e68768701852c5fd8a8ca7a17ecf17257b68e3e61",
}

SCATTER_ECHO = """\
experiment.kind = scatter-test
grid.box_length = 24.0
grid.dim = 1
grid.points = 64
initial.amplitude = 0.7
initial.kind = gaussian
initial.width = 1.0
noise.g_alpha = 3.0
noise.g_constant = 1.0
noise.g_kind = constant
noise.g_t0 = 0.0
noise.g_t1 = 1.0
noise.phi_amplitude = 0.3
noise.phi_center = 0.0
noise.phi_kind = gaussian
noise.phi_width = 1.0
noise.seed = 0
scatter.checkpoints = 0.01,0.02,0.03
scatter.norm = Sigma
""" + "scatter.theorem = \n" + """\
sim.dt = 0.005
sim.equation = snls
sim.record = full
sim.sigma = 1.0
sim.snapshot_stride = 2
sim.t_end = 0.03
"""


@pytest.mark.parametrize("name", list(KINDS))
def test_echo_and_hash_are_pinned(name):
    config = load_config(text=TINY[name])
    assert config.kind == name
    assert config.config_hash == PINNED_HASHES[name]
    assert config.config_hash == hashlib.sha256(config.echo().encode()).hexdigest()
    if name == "scatter-test":
        assert config.echo() == SCATTER_ECHO


# ---------------------------------------------------------------------------
# bad values fail at load time, naming the key
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(KINDS))
def test_tiny_configs_run(name):
    code, err = _run_cli(name, TINY[name])
    assert code == 0, err


#: one bad value per key: negative, zero, non-finite, unknown string;
#: lists also get reversed and negated
BAD_VALUES = ("-1", "0", "nan", "inf", "bogus")


def _perturbations() -> list[tuple[str, str, str]]:
    cases = []
    for name, text in TINY.items():
        base = _parse(text)
        for key, (tag, _) in _SCHEMA.items():
            # workers would spawn processes; output.dir is overridden by --out
            if key in ("ensemble.workers", "output.dir") or not KINDS[name].reads(key):
                continue
            bad = list(BAD_VALUES)
            if tag == "float_list":
                items = base[key].split(", ")
                bad += [", ".join(reversed(items)), ", ".join("-" + x for x in items)]
            cases += [(name, key, value) for value in bad]
    return cases


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.sampled_from(_perturbations()))
def test_one_bad_value_runs_or_exits_1_naming_its_key(case):
    name, key, value = case
    values = _parse(TINY[name])
    values[key] = value
    code, err = _run_cli(name, _render(values))
    assert code in (0, 1), err
    if code == 1:
        assert key in err, err


@pytest.mark.parametrize(
    "name, changes, key",
    [
        ("tail-decay", {"tail.dt": "0.03"}, "tail.dt"),
        ("tail-decay", {"tail.t_inf": "inf"}, "tail.t_inf"),
        ("tail-decay", {"tail.window_lo": "0.1", "tail.window_hi": "1.0"}, "tail.window_lo"),
        ("tail-decay", {"tail.window_lo": "0.5", "tail.window_hi": "3.0"}, "tail.window_hi"),
        ("tail-decay", {"tail.p_space": "0.5"}, "tail.p_space"),
        ("tail-decay", {"noise.phi_kind": "zero"}, "noise.phi_kind"),
        ("tail-decay", {"noise.phi_center": "1000"}, "noise.phi_center"),
        ("tail-decay", {"noise.g_kind": "zero"}, "noise.g_kind"),
        ("tail-decay", {"noise.g_kind": "indicator", "noise.g_t1": "1.5"}, "noise.g_t1"),
        ("tail-decay", {"noise.g_kind": "constant", "noise.g_constant": "0"}, "noise.g_constant"),
        ("tail-decay", {"ensemble.size": "4"}, "ensemble.size"),
        ("growth-fit", {"growth.tau_grid": "0.05, 0.1, 0.15"}, "growth.tau_grid"),
        ("growth-fit", {"growth.bound_slack": "nan"}, "growth.bound_slack"),
        ("regimes", {"regimes.alpha": "nan"}, "regimes.alpha"),
    ],
)
def test_probed_configs_exit_1_naming_the_key(name, changes, key):
    values = _parse(TINY[name])
    values.update(changes)
    code, err = _run_cli(name, _render(values))
    assert code == 1, err
    assert key in err


def test_tail_decay_points_ensemble_size_to_tail_paths():
    # even the default value is refused once it is set explicitly
    values = _parse(TINY["tail-decay"])
    values["ensemble.size"] = "1"
    code, err = _run_cli("tail-decay", _render(values))
    assert code == 1 and "ensemble.size" in err and "tail.paths" in err, err


# ---------------------------------------------------------------------------
# the one "dt partitions the horizon" check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "horizon, dt, steps",
    [(0.5, 5e-4, 1000), (4.0, 2e-3, 2000), (20.0, 2.5e-3, 8000), (32.0, 2e-2, 1600),
     (0.04, 2e-3, 20), (0.3, 0.1, 3), (8.0, 0.1, 80), (0.99, 1e-2, 99)],
)
def test_partition_steps_accepts_exact_partitions(horizon, dt, steps):
    assert partition_steps(horizon, dt) == steps


@pytest.mark.parametrize(
    "horizon, dt, fragment",
    [(4.0, float("inf"), "dt must be positive"), (4.0, float("nan"), "dt must be positive"),
     (4.0, 0.0, "dt must be positive"), (4.0, -0.1, "dt must be positive"),
     (float("inf"), 0.1, "t_inf must be positive"), (float("nan"), 0.1, "t_inf must be positive"),
     (0.0, 0.1, "t_inf must be positive"), (4.0, 0.03, "integer multiple")],
)
def test_partition_steps_rejects_with_value_error(horizon, dt, fragment):
    with pytest.raises(ValueError, match=fragment):
        partition_steps(horizon, dt)
