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
import json
import math
import re
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from snlslab import cli, ensemble
from snlslab import config as config_module
from snlslab.analysis import growth_fit
from snlslab.config import _SCHEMA, KINDS, ConfigError, _convert, load_config
from snlslab.dynamics import EQUATION_KINDS, SimConfig, evolve, evolve_batch
from snlslab.grids import Field, GridSpec
from snlslab.noise import NoiseSpec, partition_index, partition_steps, sample_path
from snlslab.selftest import run_selftest

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


def _run_cli(kind: str, text: str, out: Path | None = None) -> tuple[int, str]:
    """Run one subcommand on a config text; returns (exit code, stderr).

    Artifacts go to out, or to a temporary directory that is removed.
    """
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([kind, "--config", str(cfg), "--out", str(out or Path(tmp) / "out")])
    return code, err.getvalue()


# ---------------------------------------------------------------------------
# one record per kind
# ---------------------------------------------------------------------------


def test_cli_drivers_and_subcommands_follow_kinds():
    assert list(cli._DRIVERS) == list(KINDS)
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert list(sub.choices) == list(KINDS)


def test_every_kind_that_reads_sim_carries_a_plan_and_no_other_does():
    planned = {name for name, kind in KINDS.items() if kind.plan is not None}
    assert planned == {name for name, kind in KINDS.items() if "sim" in kind.sections}
    assert planned == {"simulate", "ensemble", "scatter-test", "growth-fit"}


def test_drivers_hand_evolve_batch_exactly_their_kinds_plan(monkeypatch):
    """ensemble._run_batch (ensembles and growth fits), cli._run_simulate
    and cli._run_scatter run evolve_batch with KINDS[kind].plan itself."""
    asked = []

    def spy(*args, plan, **kwargs):
        asked.append(plan)
        return evolve_batch(*args, plan=plan, **kwargs)

    monkeypatch.setattr(cli, "evolve_batch", spy)
    monkeypatch.setattr(ensemble, "evolve_batch", spy)
    for name, kind in KINDS.items():
        if kind.plan is None:
            continue
        asked.clear()
        code, err = _run_cli(name, TINY[name])
        assert code == 0, err
        assert asked and all(plan is kind.plan for plan in asked), (name, asked)


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
# every TINY config runs and emits pinned bytes
# ---------------------------------------------------------------------------

#: SHA-256 of every file each TINY config emits; a change to any serializer
#: or to any number shows here
TINY_ARTIFACTS = {
    "simulate": {
        "manifest.json": "89ec0de69fc51297f52eb920369ec391be108f12e9d766df00f3519a07e0548a",
        "series.csv": "db4466580cbf1a7fc5b4d554b90f708f08db3e62a113d8bf7e719aa45d1bc12d",
        "summary.txt": "60af76808e82df14a0a00b3d80393cf2b5bbc4c6b1c75b20f66f6bc495e56f7e",
    },
    "ensemble": {
        "aggregates.csv": "43a3907532caebce113f9cd55f77bb508197543463eff3eac5f91c79da285e86",
        "manifest.json": "7b94c3e80e2662321e6f3a4a7020b5104bf886dffa9922e891d40e8918d478a3",
        "per_path.csv": "58cf72c5d8749f07eed6ae565934f30615c14d77e2228505eaf3c4439b743ba6",
        "summary.txt": "7cfbb92aea71e50401bf7b393b8e5be76fc72594c5e945af8c1cc486e2547d5d",
    },
    "tail-decay": {
        "grid.csv": "74a87e284a20f92ecb8c606cc1a73ff1ae18532f15a58f8bcfe6cba938c34c79",
        "manifest.json": "8067424278c58355104294ee4f7f8f3fb1c2183bf7c270b288cfa4511e9ec2ea",
        "slopes.csv": "95d7318e0beb568f53980d709b5356acc077f141bb36f460f3aee4693982d644",
        "summary.txt": "c1714b74f3dd21a0146578554325b4b0a19dc40e2273d654870b6e4e7932407c",
    },
    "scatter-test": {
        "differences.csv": "d42ce3ffc77e1d5f1a5ce7351ded42a16065159050b74e1210fb2e4fe052eabe",
        "manifest.json": "100d269cf9c9e30a4fe22f9d0fdefbb1cb374576e00d777f9ca400da148b11c8",
        "summary.txt": "c4aab702934afdb84a61cef993ca8278e1dd0ed4407ed0ac48495eaae1569032",
    },
    "growth-fit": {
        "growth.csv": "2bd2d47e467bb7511b506be6550bf1a54a2e29740ed3e10441848ef9bcda76f1",
        "manifest.json": "b42be0b3eae2bbacd0f2730e7b27637a848cf9d8480154255adfb7f5ca08473e",
        "summary.txt": "e8834fcf0b7853e7877e1f6a46db632933cf2ac00bdcb3e7ccc584aa5cca7cc4",
    },
    "regimes": {
        "checks.csv": "5c053c36413ebb54b1026ba00965c580bbbfa90aa7fe82faf929b3e3e17b2731",
        "manifest.json": "7c036651ebf7859b12dd1c978430e6558ff14ed057c3d62c1f672903414144c4",
        "summary.txt": "62a1ff9352824eba41491cfb39fe6729b5b3c759cc63c63d21a5937f11061e5d",
    },
    "selftest": {
        "manifest.json": "0a373e4707bd430d142cabbefb1a6ea232feecff19ac6ed42b53188f30b5f936",
        "selftest.csv": "6633347f68fd1a68974def42a2b35572bf30e98947e93920cad0170715743ea0",
        "summary.txt": "8fce0af4601ecbbb3980c37b6fca0f66e0f7ec36c3f8ed7e97b6b3f82783e712",
    },
}


def _refuse_constant(name: str):
    raise ValueError(f"manifest holds the non-JSON constant {name}")


@pytest.mark.parametrize("name", list(KINDS))
def test_tiny_configs_run(name, tmp_path):
    code, err = _run_cli(name, TINY[name], out=tmp_path)
    assert code == 0, err
    emitted = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert emitted == TINY_ARTIFACTS[name]
    # strict JSON: the infinite energy_subcritical_sup of a regime with
    # dim <= 2 is written as "inf", not as Infinity
    manifest = json.loads((tmp_path / "manifest.json").read_text(),
                          parse_constant=_refuse_constant)
    if name == "regimes":
        assert manifest["detail"]["energy_subcritical_sup"] == "inf"


#: SHA-256 of the stdout and stderr of each TINY run, with its output
#: directory written as <out>: the order warnings, summary, wrote lines,
#: after-lines is part of the bytes
TINY_TRANSCRIPTS = {
    "simulate": ("2624ff370943679f29c2c526acaed2ac9c1da3c10290c52ea42f57caf4880725",
                 "2c6f0b531e1c041edab8c33fd725216addeed124f2553c7d4490ac1aa3c1f053"),
    "ensemble": ("c41b9423bcf81a46a36871e47b568ecbe8693f8939e0f2eefb3029d7feb0e34c",
                 "c57c05fc620f6af73bcc666870d69f415081f4222029f487e255231f2f16233d"),
    "tail-decay": ("4de6486f9b2496a90b42a0318ead5e594c50a6a5aad590aeb8b70cd1a30a986b",
                   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "scatter-test": ("74d88af1984d57342a6a29e176d504a3dd7362e42cab49a950d84b0f11511773",
                     "b0df718acb09b0f41d95fe5ff539de188c8e77d906ebbfddaa6427db019ad4ef"),
    "growth-fit": ("f90edb010e87e64225a1bd538d63ee08b3fd7447344e721dadb0a0d27f1d10ae",
                   "a66cde7ea57dc52b11a87f4b377bdbcf977a5e1833ec4beda3798e0f22fac936"),
    "regimes": ("d96c5dea70ce850741f84d8730d745154705901aab56cc6f6d1e62e0c3ee769d",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "selftest": ("72ee5f9c5132150bf2d556c36c349f73e1637b53f4e9947d418966203c6344a6",
                 "629b5eff2c590eac4b211f05f6267d868cc1915d5194a1fe393f7a7edffb678c"),
}


@pytest.mark.parametrize("name", list(KINDS))
def test_tiny_transcripts_are_pinned(name, tmp_path):
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text(TINY[name])
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert cli.main([name, "--config", str(cfg), "--out", str(out)]) == 0
    digests = tuple(hashlib.sha256(s.getvalue().replace(str(out), "<out>").encode()).hexdigest()
                    for s in (stdout, stderr))
    assert digests == TINY_TRANSCRIPTS[name]


@pytest.mark.parametrize("name, key, value, text", [
    ("simulate", "sim.t_end", 2, "2"),
    ("simulate", "sim.snapshot_stride", 4, "4"),
    ("ensemble", "noise.seed", 12, "12"),
    ("ensemble", "noise.phi_amplitude", 1, "1"),
    ("scatter-test", "scatter.checkpoints", (0.01, 0.02, 0.03), "0.01, 0.02, 0.03"),
    ("growth-fit", "growth.tau_grid", [0.04, 0.08, 0.16], "0.04,0.08,0.16"),
])
def test_an_override_loads_as_the_same_config_text_does(name, key, value, text):
    values = _parse(TINY[name])
    values[key] = text
    written = load_config(text=_render(values))
    overridden = load_config(text=TINY[name], overrides={key: value})
    assert overridden.echo() == written.echo()
    assert overridden.config_hash == written.config_hash


@pytest.mark.parametrize("key, value", [
    ("noise.seed", 7.9), ("sim.snapshot_stride", 2.5), ("ensemble.size", True),
    ("sim.t_end", "soon"), ("sim.t_end", True),
])
def test_an_override_its_key_cannot_take_is_refused_naming_the_key(key, value):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: cannot parse"):
        load_config(text=TINY["ensemble"], overrides={key: value})


def test_subcommands_offer_the_override_flags_their_kinds_read():
    """--seed and --workers exist only where noise.seed and ensemble.workers
    are read; a flag a kind does not read is refused as usage (exit 1)."""
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    for name, kind in KINDS.items():
        flags = set(re.findall(r"(?<![\w-])--[a-z]+", sub.choices[name].format_help()))
        expected = {"--config", "--out", "--strict", "--help"}
        expected |= {"--seed"} if kind.reads("noise.seed") else set()
        expected |= {"--workers"} if kind.reads("ensemble.workers") else set()
        assert flags == expected, name
    assert {n for n, k in KINDS.items() if k.reads("ensemble.workers")} == {
        "ensemble", "tail-decay", "growth-fit"}
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(["simulate", "--config", "run.cfg", "--workers", "2"]) == 1
    assert "usage: unrecognized arguments: --workers 2" in err.getvalue()


def test_failing_selftest_exits_2_after_writing_its_report(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_selftest",
                        lambda points: run_selftest(points, fault="propagator_sign"))
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(["selftest", "--out", str(tmp_path)])
    assert code == 2
    assert stderr.getvalue().endswith("selftest FAILED\n")
    assert (tmp_path / "selftest.csv").is_file()
    assert "FAIL" in (tmp_path / "summary.txt").read_text()


# ---------------------------------------------------------------------------
# bad values fail at load time, naming the key
# ---------------------------------------------------------------------------


#: one bad value per key: negative, zero, non-finite, unknown string, and
#: 1, 6 and 12 (size floors, powers of two, box edges, snapshot strides);
#: lists also get reversed and negated
BAD_VALUES = ("-1", "0", "nan", "inf", "bogus", "1", "6", "12")


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


def test_one_bad_value_runs_or_exits_1_naming_its_key():
    """Every case runs: a sample can miss a whole class of failure."""
    failures = []
    for name, key, value in _perturbations():
        values = _parse(TINY[name])
        values[key] = value
        code, err = _run_cli(name, _render(values))
        if code not in (0, 1) or (code == 1 and key not in err):
            failures.append(f"{name}: {key} = {value} exits {code}: {err.strip()}")
    assert not failures, "\n".join(failures)


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
        ("growth-fit", {"growth.tau_grid": "0.001, 0.002, 0.004"}, "growth.tau_grid, sim.dt"),
        # 2e-10 below steps 5, 10, 20: outside the rule, where a floor would
        # read each mean one step early
        ("growth-fit", {"growth.tau_grid": "0.0499999998, 0.0999999996, 0.1999999992"},
         "growth.tau_grid, sim.dt"),
        ("regimes", {"regimes.two_sigma": "inf"}, "regimes.two_sigma"),
        ("regimes", {"regimes.alpha": "nan"}, "regimes.alpha"),
        ("simulate", {"initial.width": "6"}, "initial.width"),
        ("scatter-test", {"grid.box_length": "12"}, "grid.box_length"),
        ("growth-fit", {"ensemble.size": "1"}, "ensemble.size"),
        ("selftest", {"selftest.points": "12"}, "selftest.points"),
        ("scatter-test", {"sim.snapshot_stride": "6"}, "sim.snapshot_stride"),
        # t_end / dt overflows to inf: no finite step count
        ("simulate", {"sim.dt": "1e-10", "sim.t_end": "1e300"}, "sim.dt, sim.t_end"),
        # 1e14 steps: the full series tables alone need ~7,300 TiB
        ("simulate", {"sim.dt": "1e-2", "sim.t_end": "1e12"}, "sim.t_end, sim.dt"),
    ],
)
def test_probed_configs_exit_1_naming_the_key(name, changes, key):
    values = _parse(TINY[name])
    values.update(changes)
    code, err = _run_cli(name, _render(values))
    assert code == 1, err
    assert key in err


@pytest.mark.parametrize("name, rows, per_point", [("simulate", 1, 456), ("ensemble", 2, 156),
                                                    ("scatter-test", 1, 680),
                                                    ("growth-fit", 2, 172)])
def test_recorded_tables_larger_than_memory_are_refused_at_load(name, rows, per_point,
                                                                monkeypatch):
    """(steps + 1) x rows x SimConfig.point_bytes(the kind's plan) must fit
    in physical memory; rows is ensemble.size for ensembles and growth
    fits. All four configs are snls on 64 points. simulate records full
    with its energy budget (55 words, 440 bytes) and takes monitors every 2
    points (16 per point); the ensemble records light (19 words, 152
    bytes) and the growth fit its two series without the energy budget (21
    words, 168 bytes), both taking monitors every 10 points (4);
    scatter-test records the mass alone (19 words, 152 bytes) and keeps
    the field with the monitors every 2 points (528)."""
    config = load_config(text=TINY[name])
    assert config.sim.point_bytes(KINDS[name].plan) == per_point
    table = (config.sim.steps + 1) * rows * per_point
    pages = {"SC_PHYS_PAGES": table, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(config_module.os, "sysconf", pages.__getitem__)
    load_config(text=TINY[name])  # exactly the memory fits
    pages["SC_PHYS_PAGES"] = table - 1
    with pytest.raises(ConfigError, match=rf"^sim.t_end, sim.dt: .* need {table} bytes"):
        load_config(text=TINY[name])


def test_config_file_that_is_not_utf8_exits_1_naming_the_file(tmp_path):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(TINY["regimes"].encode() + "# d\xe9j\xe0 vu\n".encode("latin-1"))
    with pytest.raises(ConfigError, match="latin1.cfg"):
        load_config(cfg)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["regimes", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1 and "latin1.cfg" in err.getvalue(), err.getvalue()


def test_scatter_checkpoint_at_t_end_inside_the_rule_runs(tmp_path):
    """t_end = 2 + 1.5e-9 is step 8 of dt = 0.25 (the rule allows 2e-9),
    so the last checkpoint, equal to t_end, reads the snapshot stored at
    8 * 0.25 = 2.0."""
    values = _parse(TINY["scatter-test"])
    values.update({"sim.dt": "0.25", "sim.t_end": "2.0000000015",
                   "scatter.checkpoints": "0.5, 1.0, 2.0000000015"})
    code, err = _run_cli("scatter-test", _render(values), out=tmp_path)
    assert code == 0, err
    assert (tmp_path / "differences.csv").is_file()


def test_zero_initial_data_passes_the_box_check_on_any_box():
    values = _parse(TINY["simulate"])
    values.update({"initial.kind": "zero", "grid.box_length": "1"})
    assert load_config(text=_render(values)).initial.kind == "zero"


def _with_equation(name: str, equation: str) -> str:
    """TINY[name] with sim.equation set; noise keys are kept only for snls,
    so no other equation is refused for a stray noise key."""
    values = {k: v for k, v in _parse(TINY[name]).items()
              if equation == "snls" or not k.startswith("noise.")}
    values["sim.equation"] = equation
    return _render(values)


@pytest.mark.parametrize(
    "name, equation",
    [(name, equation) for name in ("ensemble", "growth-fit")
     for equation in ("deterministic", "transformed", "random_shifted")]
    + [("simulate", "random_shifted"), ("scatter-test", "random_shifted"),
       ("scatter-test", "transformed")],
)
def test_equation_the_kind_cannot_run_exits_1_naming_sim_equation(name, equation):
    code, err = _run_cli(name, _with_equation(name, equation))
    assert code == 1, err
    assert err.startswith("error: sim.equation:"), err


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


#: (t, dt, its step or None): on the partition, inside the rule
#: |m dt - t| <= 1e-9 max(dt, t), and beyond it
PARTITION_TABLE = [
    (0.4, 0.01, 40),
    (0.4 * (1 + 5e-10), 0.01, 40),
    (0.4 * (1 + 2e-9), 0.01, None),
    (0.4 * (1 - 2e-9), 0.01, None),
    (20.000000005, 0.05, 400),  # 5e-9 past step 400: more than 1e-9, inside the rule
    (20.00000005, 0.05, None),
    (0.0999999998, 0.01, None),  # 2e-10 short of step 10, beyond 1e-10
]


def _step_or_none(call):
    try:
        return call()
    except ValueError:
        return None


@pytest.mark.parametrize("t, dt, m", PARTITION_TABLE)
def test_every_entry_point_reads_a_time_by_the_one_rule(t, dt, m):
    """Each place that reads a time takes the step partition_index gives,
    or refuses the time, alike: a horizon, a path time, a snapshot, a
    growth horizon, and a checkpoint or horizon in a config. The run's
    own horizon is the nearest partition point; t/4 and t/2 sit as near
    to theirs, relatively, as t does."""
    grid = GridSpec(1, 16, 24.0)
    n = round(t / dt)
    horizon = n * dt
    traj = evolve(SimConfig(grid, sigma=1.0, dt=dt, t_end=horizon, snapshot_stride=1),
                  Field.from_function(grid, lambda x: np.exp(-x**2)))
    # a dispersing field differs at every step, so its bytes name the step
    snapshot_step = {snap.tobytes(): k for k, snap in enumerate(traj.snapshots)}
    assert len(snapshot_step) == n + 1
    path = sample_path(NoiseSpec(), horizon, dt)
    view = SimpleNamespace(times=np.arange(n + 1) * dt, series={"pc_energy": np.arange(n + 1.0)})
    steps = {
        "partition_index": _step_or_none(lambda: partition_index(t, dt)),
        "SimConfig.steps": _step_or_none(lambda: SimConfig(grid, sigma=1.0, dt=dt, t_end=t).steps),
        "NoisePath.index_of": _step_or_none(lambda: path.index_of(t)),
        "snapshot_at": _step_or_none(lambda: snapshot_step[traj.snapshot_at(t).values.tobytes()]),
        "growth_fit": _step_or_none(lambda: growth_fit([view, view], (t / 4, t / 2, t),
                                                       min_paths=2).mean_running_sup.tolist()),
    }
    if steps["growth_fit"] is not None:  # the running sup of 0, 1, 2, ... is the step
        assert steps["growth_fit"][:2] == [m / 4, m / 2]
        steps["growth_fit"] = steps["growth_fit"][-1]
    assert steps == dict.fromkeys(steps, m)
    for kind, key in (("scatter-test", "scatter.checkpoints"), ("growth-fit", "growth.tau_grid")):
        values = _parse(TINY[kind])
        values.update({"sim.dt": repr(dt), "sim.t_end": repr(horizon), "sim.snapshot_stride": "1",
                       key: f"{t / 4!r}, {t / 2!r}, {t!r}"})
        if m is None:
            with pytest.raises(ConfigError, match=key):
                load_config(text=_render(values))
        else:
            load_config(text=_render(values))


# ---------------------------------------------------------------------------
# the README's config reference follows the schema
# ---------------------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def _loads_with_equation(equation: str) -> bool:
    try:
        load_config(text=_with_equation("simulate", equation))
    except ConfigError:
        return False
    return True


def _readme_defaults(text: str) -> dict[str, str]:
    """The first value README's config reference states in parentheses
    after each key: `a` (x) gives a: x; `a`/`b` (x/y) gives a: x, b: y,
    and `a`/`b` (x) gives both x."""
    section = text.split("### Config reference", 1)[1].split("\n## ", 1)[0]
    stated = {}
    for keys, inner in re.findall(r"((?:`[\w.]+`/)*`[\w.]+`) \(([^)]*)\)", section):
        keys = re.findall(r"`([\w.]+)`", keys)
        first = re.split(r"[,;|]", inner, maxsplit=1)[0].split("/")
        for key, value in zip(keys, first * len(keys) if len(first) == 1 else first):
            stated.setdefault(key, value.strip().strip("`"))
    return stated


def _same(a, b) -> bool:
    return type(a) is type(b) and (a == b or (isinstance(a, float) and math.isnan(a)
                                              and math.isnan(b)))


def test_readme_names_every_schema_key_and_the_loadable_equations():
    text = README.read_text()
    assert [key for key in _SCHEMA if f"`{key}`" not in text] == []
    listed = re.search(r"`sim\.equation` \(([^)]*)\)", text).group(1)
    loadable = {equation for equation in EQUATION_KINDS if _loads_with_equation(equation)}
    assert set(re.findall(r"`(\w+)`", listed)) == loadable
    # *req* marks exactly the keys without a default; every other key states
    # its default first in parentheses ("unset" is the empty string or NaN
    # that the specs read as None)
    assert set(re.findall(r"`([\w.]+)` \*req\*", text)) == {
        key for key, (_, default) in _SCHEMA.items() if default is None}
    stated = _readme_defaults(text)
    assert set(stated) == {key for key, (_, default) in _SCHEMA.items() if default is not None}
    unset = {"str": "", "float": "nan"}
    wrong = [(key, raw, _SCHEMA[key][1]) for key, raw in stated.items()
             if not _same(_convert(key, unset[_SCHEMA[key][0]] if raw == "unset" else raw),
                          _SCHEMA[key][1])]
    assert wrong == []
