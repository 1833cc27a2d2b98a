"""Experiment configuration: flat dotted key-value text, strictly validated.

Config files are plain text: one ``section.key = value`` per line, ``#``
starts a comment, blank lines ignored. Every key is typed and belongs
to a fixed schema; unknown keys are rejected (with the offending key
path) rather than ignored, and keys from sections an experiment kind
does not consume are rejected too, so a typo can never silently steer a
run.

Each experiment kind is one ``ExperimentKind`` record in ``KINDS``: its
name, its command-line help line and the sections it reads. A kind's
required keys are the schema keys without a default in those sections.
Every spec is built from its section's keys by one helper, so a value
its constructor rejects fails at load time with the key named; the
schema itself is read off the spec fields, so each key's type and
default are declared once, on its spec.

Defaults are materialized at load time and echoed back through
``ExperimentConfig.echo()``; the SHA-256 of that canonical echo is the
config hash recorded in report manifests, so the hash changes exactly
when the effective configuration changes.

Experiments that reference an asymptotic statement by name check its
hypotheses at load time: a scatter test naming a scattering class whose
window or noise-decay requirement fails gets a warning (or a hard
refusal under ``strict=True``), and a tail study whose envelope has a
divergent tail integral is always refused.
"""
from __future__ import annotations

import math
import os
import re
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .analysis import (GROWTH_FIT_PATHS, THEOREM_NAMES, check_geometric, check_scatter_args,
                       classify_regime)
from .dynamics import SimConfig, _check_inside_half_box
from .grids import Field, GridSpec
from .noise import (NoiseSpec, check_fit_window, g_sq_tail_bound, make_phi, partition_index,
                    partition_steps, path_seed)
from .norms import _check_exponent

__all__ = [
    "ConfigError",
    "ExperimentKind",
    "KINDS",
    "InitialSpec",
    "ScatterSpec",
    "GrowthSpec",
    "TailSpec",
    "RegimeQuery",
    "ExperimentConfig",
    "load_config",
    "parse_config_text",
    "make_initial",
]

_INITIAL_KINDS = ("gaussian", "zero")
#: the fewest paths growth-fit runs: its fit regresses an ensemble mean
GROWTH_MIN_PATHS = 2


class ConfigError(ValueError):
    """Configuration rejected; the message carries the key path."""


@dataclass(frozen=True)
class ExperimentKind:
    """One experiment kind: its subcommand name, help line, and the
    config sections it reads besides ``experiment`` and ``output``.

    The sections decide what ``load_config`` builds: a kind that reads
    ``ensemble`` runs noise paths, so it always gets a noise spec and
    must integrate snls if it reads ``sim``; one that reads ``scatter``
    pulls back with the physical S(-t), so it refuses ``transformed``.
    """

    name: str
    help: str
    sections: tuple[str, ...]

    def reads(self, key: str) -> bool:
        return key.split(".", 1)[0] in ("experiment", "output", *self.sections)


KINDS: dict[str, ExperimentKind] = {
    k.name: k
    for k in (
        ExperimentKind("simulate", "run one trajectory and write its series/budget artifacts",
                       ("grid", "sim", "initial", "noise")),
        ExperimentKind("ensemble", "run many seeded trajectories and aggregate the budgets",
                       ("grid", "sim", "initial", "noise", "ensemble")),
        ExperimentKind("tail-decay", "measure the decay of the far-tail stochastic convolution",
                       ("grid", "noise", "tail", "ensemble")),
        ExperimentKind("scatter-test", "pullback Cauchy diagnostic for scattering at checkpoints",
                       ("grid", "sim", "initial", "noise", "scatter")),
        ExperimentKind("growth-fit", "fit the growth exponent of the quadratic-weight energy",
                       ("grid", "sim", "initial", "noise", "ensemble", "growth")),
        ExperimentKind("regimes", "classify a (dimension, power, envelope) triple", ("regimes",)),
        ExperimentKind("selftest", "run the closed-form oracle battery", ("selftest",)),
    )
}


@dataclass(frozen=True)
class InitialSpec:
    """Initial condition family: a centered complex Gaussian or zero."""

    kind: str = "gaussian"
    amplitude: float = 1.0
    width: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _INITIAL_KINDS:
            raise ValueError(f"kind must be one of {_INITIAL_KINDS}, got {self.kind!r}")
        if not (self.width > 0 and math.isfinite(self.width)):
            raise ValueError(f"width must be positive, got {self.width}")
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")


def make_initial(spec: InitialSpec, grid: GridSpec) -> Field:
    """Sample the configured initial condition on a grid."""
    if spec.kind == "zero":
        return Field.zeros(grid)
    r2 = grid.radius_squared()
    vals = spec.amplitude * np.exp(-r2 / (2.0 * spec.width**2))
    return Field(grid, vals.astype(complex))


@dataclass(frozen=True)
class ScatterSpec:
    """Scatter-test controls: checkpoints, norm, referenced statement."""

    checkpoints: tuple[float, ...]
    norm_kind: str = field(default="Sigma", metadata={"key": "norm"})
    theorem: str | None = ""

    def __post_init__(self) -> None:
        check_scatter_args(self.norm_kind, self.checkpoints)
        object.__setattr__(self, "theorem", self.theorem or None)
        if self.theorem not in (None, *THEOREM_NAMES):
            raise ValueError(f"theorem must be one of {THEOREM_NAMES}, got {self.theorem!r}")


@dataclass(frozen=True)
class GrowthSpec:
    """Growth-fit controls: geometric horizon grid and one-sided slack."""

    tau_grid: tuple[float, ...]
    bound_slack: float = 0.25

    def __post_init__(self) -> None:
        check_geometric(self.tau_grid)
        if not math.isfinite(self.bound_slack):
            raise ValueError(f"bound_slack must be finite, got {self.bound_slack}")


@dataclass(frozen=True)
class TailSpec:
    """Tail-study controls: horizon, partition, ensemble size, norm.

    A NaN window end (the config default) means unset; unset ends give
    the default fit window [t_inf/8, t_inf/2].
    """

    t_inf: float
    dt: float = 1e-3
    paths: int = 100
    p_space: float = 2.0
    window_lo: float | None = math.nan
    window_hi: float | None = math.nan

    def __post_init__(self) -> None:
        for name in ("window_lo", "window_hi"):
            if getattr(self, name) is not None and math.isnan(getattr(self, name)):
                object.__setattr__(self, name, None)
        partition_steps(self.t_inf, self.dt)
        if self.paths < 2:
            raise ValueError(f"need at least 2 paths, got {self.paths}")
        _check_exponent(self.p_space, "p_space")
        if (self.window_lo is None) != (self.window_hi is None):
            raise ValueError(
                f"set both or neither (window_lo={self.window_lo}, window_hi={self.window_hi})"
            )
        try:
            check_fit_window(self.t_inf, self.window)
        except ValueError as exc:
            raise ValueError(f"{exc} (window_lo, window_hi)") from None

    @property
    def window(self) -> tuple[float, float] | None:
        return None if self.window_lo is None else (self.window_lo, self.window_hi)


@dataclass(frozen=True)
class RegimeQuery:
    """Triple fed to the regime classifier."""

    dim: int
    two_sigma: float
    alpha: float

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        if not (self.two_sigma > 0 and math.isfinite(self.two_sigma)):
            raise ValueError(f"two_sigma must be positive and finite, got {self.two_sigma}")
        if math.isnan(self.alpha):
            raise ValueError("alpha must be a number (inf for compact support), got nan")


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully validated experiment; every default materialized."""

    kind: str
    ensemble_size: int
    workers: int
    out_dir: str
    selftest_points: int
    grid: GridSpec | None = None
    sim: SimConfig | None = None
    initial: InitialSpec | None = None
    noise: NoiseSpec | None = None
    scatter: ScatterSpec | None = None
    growth: GrowthSpec | None = None
    tail: TailSpec | None = None
    regimes: RegimeQuery | None = None
    warnings: tuple[str, ...] = ()
    resolved: tuple[tuple[str, str], ...] = field(default=(), repr=False)

    @property
    def base_seed(self) -> int:
        """Seed the per-path seeds derive from: noise.seed, or 0 without noise."""
        return self.noise.seed if self.noise is not None else 0

    def echo(self) -> str:
        """Canonical key = value text of the effective configuration."""
        return "\n".join(f"{k} = {v}" for k, v in self.resolved) + "\n"

    @property
    def config_hash(self) -> str:
        import hashlib

        return hashlib.sha256(self.echo().encode()).hexdigest()


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------

#: the spec each section builds; every field's key, tag and default come from it
_SPECS = {"sim": SimConfig, "initial": InitialSpec, "noise": NoiseSpec, "scatter": ScatterSpec,
          "growth": GrowthSpec, "tail": TailSpec, "regimes": RegimeQuery}
#: parse tag of each field annotation in use
_TAGS = {"int": "int", "float": "float", "str": "str", "float | None": "float",
         "str | None": "str", "tuple[float, ...]": "float_list"}


def _key(section: str, f) -> str:
    """Config key of one spec field: ``section.<field>``, or the key
    named in the field's ``key`` metadata."""
    return f"{section}.{f.metadata.get('key', f.name)}"


# key: (type tag, default or None = required when the section is used)
_SCHEMA: dict[str, tuple] = {
    _key(section, f): (_TAGS[f.type], None if f.default is MISSING else f.default)
    for section, cls in _SPECS.items()
    for f in fields(cls)
    if not (cls is SimConfig and f.name in ("grid", "noise"))  # load_config passes these
} | {
    # the keys no spec field defaults
    "experiment.kind": ("str", None),
    "grid.dim": ("int", 1),
    "grid.points": ("int", 256),
    "grid.box_length": ("float", 24.0),
    "sim.dt": ("float", 1e-3),
    "ensemble.size": ("int", 1),
    "ensemble.workers": ("int", 1),
    "output.dir": ("str", "runs"),
    "selftest.points": ("int", 64),
}


def _convert(key: str, raw: str):
    tag, _ = _SCHEMA[key]
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "float_list":
            parts = [p for p in raw.split(",") if p.strip()]
            if not parts:
                raise ValueError("empty list")
            return tuple(float(p) for p in parts)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {tag} ({exc})") from None


def parse_config_text(text: str) -> dict[str, object]:
    """Parse raw config text into a typed key -> value mapping.

    Rejects unknown keys, duplicate keys, and malformed lines, naming
    the key (or line) in the error.
    """
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{key}: unknown key (line {lineno})")
        if key in values:
            raise ConfigError(f"{key}: duplicate key (line {lineno})")
        values[key] = _convert(key, raw)
    return values


def _effective_alpha(noise: NoiseSpec | None) -> float:
    """Decay exponent to test hypotheses against.

    Power-law envelopes use their own alpha. Compactly supported or
    absent noise decays faster than any power (alpha = inf); a nonzero
    constant envelope never decays (alpha = 0).
    """
    if noise is None or noise.phi_kind == "zero" or noise.g_kind == "zero":
        return math.inf
    if noise.g_kind == "indicator":
        return math.inf
    if noise.g_kind == "constant":
        return math.inf if noise.g_constant == 0.0 else 0.0
    return noise.g_alpha


def _check_scatter_hypotheses(
    kind: str,
    scatter: ScatterSpec,
    grid: GridSpec,
    sim: SimConfig,
    noise: NoiseSpec | None,
) -> list[str]:
    if not scatter.theorem:
        return []
    report = classify_regime(grid.dim, 2.0 * sim.sigma, _effective_alpha(noise))
    check = {c.name: c for c in report.checks}[scatter.theorem]
    if check.applies:
        return []
    reasons = []
    if not check.window_ok:
        reasons.append(
            f"nonlinearity window fails (2*sigma = {2.0 * sim.sigma:g}, "
            f"class = {report.regime_class})"
        )
    if not check.decay_ok:
        reasons.append(
            f"noise decay fails (effective alpha = {_effective_alpha(noise):g}, "
            f"needs > {check.required_alpha:g})"
        )
    return [
        f"{kind} references {scatter.theorem} but its hypotheses are unmet: "
        + "; ".join(reasons)
    ]


def _recorded_step(t: float, sim: SimConfig, keys: str, what: str) -> int:
    """t's step on sim's partition (noise.partition_index); a ConfigError names
    keys when t is off it, and the first of them when the step is past sim.steps."""
    try:
        m = partition_index(t, sim.dt, what)
    except ValueError as exc:
        raise ConfigError(f"{keys}: {exc}") from None
    if m > sim.steps:
        raise ConfigError(f"{keys.split(',')[0]}: {what} {t} exceeds sim.t_end = {sim.t_end}")
    return m


def _build(cls, section: str, get, **given):
    """Build one spec from its section's keys.

    Each dataclass field not in ``given`` reads its ``_key``. A value
    the constructor rejects becomes a ConfigError naming the keys of the
    fields its message mentions.
    """
    keys = {f.name: _key(section, f) for f in fields(cls) if f.name not in given}
    values = {name: get(key) for name, key in keys.items()}
    try:
        return cls(**given, **values)
    except ValueError as exc:
        named = [key for name, key in keys.items() if re.search(rf"\b{name}\b", str(exc))]
        raise ConfigError(f"{', '.join(named) or section}: {exc}") from None


_PHI_KEYS = ("phi_kind", "phi_amplitude", "phi_center", "phi_width")
_ENVELOPE_KEYS = {
    "power_law": ("g_alpha",),
    "indicator": ("g_t0", "g_t1"),
    "constant": ("g_constant",),
    "zero": (),
}


def _envelope_keys(noise: NoiseSpec) -> str:
    """The keys that shape the envelope g, as ``key = value`` text."""
    shape = [f"noise.{k} = {getattr(noise, k):g}" for k in _ENVELOPE_KEYS[noise.g_kind]]
    return ", ".join([f"noise.g_kind = {noise.g_kind}", *shape])


def load_config(
    path: str | Path | None = None,
    *,
    text: str | None = None,
    strict: bool = False,
    overrides: dict[str, object] | None = None,
) -> ExperimentConfig:
    """Load, validate, and materialize an experiment configuration.

    Exactly one of ``path`` or ``text`` must be given. ``overrides``
    maps schema keys to replacement values (the CLI routes --seed,
    --workers, --out through it); overridden values participate in the
    canonical echo and therefore in the config hash. With ``strict``
    any hypothesis warning becomes a hard error.
    """
    if (path is None) == (text is None):
        raise ConfigError("exactly one of path or text must be given")
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        try:
            text = p.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {p} is not UTF-8 text ({exc})") from None
    values = parse_config_text(text)
    for key, val in (overrides or {}).items():
        if key not in _SCHEMA:
            raise ConfigError(f"{key}: unknown override key")
        values[key] = val

    name = values.get("experiment.kind")
    if name is None:
        raise ConfigError("experiment.kind: missing required key")
    if name not in KINDS:
        raise ConfigError(f"experiment.kind: must be one of {tuple(KINDS)}, got {name!r}")
    kind = KINDS[name]
    sections = kind.sections

    for key in values:
        if not kind.reads(key):
            raise ConfigError(f"{key}: not used by experiment kind {name!r}")
    for key, (_, default) in _SCHEMA.items():
        if default is None and kind.reads(key) and key not in values:
            raise ConfigError(f"{key}: missing required key for kind {name!r}")

    def get(key: str):
        return values[key] if key in values else _SCHEMA[key][1]

    warnings: list[str] = []

    grid = _build(GridSpec, "grid", get) if "grid" in sections else None
    equation = get("sim.equation") if "sim" in sections else None
    if equation == "random_shifted":
        raise ConfigError(
            "sim.equation: random_shifted needs its shift series z, which a config "
            "cannot give (without one it is the deterministic run); library callers "
            "pass it as evolve(..., shift=...)"
        )
    if "scatter" in sections and equation == "transformed":
        raise ConfigError(f"sim.equation: kind {name!r} pulls fields back with the physical "
                          "S(-t), which does not invert the transformed equation's flow")
    if "ensemble" in sections and equation not in (None, "snls"):
        raise ConfigError(
            f"sim.equation: kind {name!r} runs noise ensembles; set sim.equation = snls"
        )
    noise = None
    if "ensemble" in sections or equation == "snls":
        noise = _build(NoiseSpec, "noise", get)
    else:
        stray = [key for key in values if key.startswith("noise.")]
        if stray:
            raise ConfigError(
                f"{stray[0]}: noise keys are set but sim.equation = "
                f"{equation!r} does not consume them"
            )

    sim = initial = None
    if "sim" in sections:
        sim = _build(SimConfig, "sim", get, grid=grid, noise=noise)
        initial = _build(InitialSpec, "initial", get)
        try:
            _check_inside_half_box(make_initial(initial, grid))
        except ValueError as exc:
            raise ConfigError(f"initial.width, grid.box_length: {exc}") from None

    scatter = None
    if "scatter" in sections:
        scatter = _build(ScatterSpec, "scatter", get)
        keys = "scatter.checkpoints, sim.snapshot_stride, sim.dt"
        for c in scatter.checkpoints:
            m = _recorded_step(c, sim, keys, "checkpoint")
            if m % sim.snapshot_stride and m != sim.steps:
                raise ConfigError(f"{keys}: {c} is not a recorded snapshot time (its step {m} "
                                  f"is neither a multiple of the stride nor the last)")
        warnings.extend(_check_scatter_hypotheses(name, scatter, grid, sim, noise))

    growth = None
    if "growth" in sections:
        for tau in get("growth.tau_grid"):
            _recorded_step(tau, sim, "growth.tau_grid, sim.dt", "horizon")
        if sim.record != "full":
            raise ConfigError("sim.record: growth-fit needs record = full")
        growth = _build(GrowthSpec, "growth", get)

    tail = None
    if "tail" in sections:
        if "ensemble.size" in values:
            raise ConfigError(
                "ensemble.size: tail-decay sizes its ensemble by tail.paths; "
                "set tail.paths instead"
            )
        tail = _build(TailSpec, "tail", get)
        if not math.isfinite(g_sq_tail_bound(noise, max(tail.t_inf / 8.0, 1e-9))):
            raise ConfigError(
                f"{_envelope_keys(noise)}: the envelope's truncated tail integral "
                "diverges (needs a power law with alpha > 1/2, an indicator, or "
                "zero); the tail study's decay hypothesis cannot be met"
            )
        if not make_phi(noise, grid).values.any():
            shape = ", ".join(f"noise.{k} = {getattr(noise, k)}" for k in _PHI_KEYS)
            raise ConfigError(
                f"{shape}: the noise profile is zero on the grid, so the tail "
                "study has nothing to fit"
            )
        _, hi = check_fit_window(tail.t_inf, tail.window)
        if not g_sq_tail_bound(noise, hi) > g_sq_tail_bound(noise, tail.t_inf):
            raise ConfigError(
                f"{_envelope_keys(noise)}: the envelope vanishes on [{hi:g}, "
                f"tail.t_inf = {tail.t_inf:g}), so the tail study has nothing to fit"
            )

    regimes = _build(RegimeQuery, "regimes", get) if "regimes" in sections else None

    ensemble_size = get("ensemble.size")
    if ensemble_size < 1:
        raise ConfigError(f"ensemble.size: must be >= 1, got {ensemble_size}")
    if "growth" in sections and ensemble_size < GROWTH_MIN_PATHS:
        raise ConfigError(f"ensemble.size: growth-fit needs at least {GROWTH_MIN_PATHS} "
                          f"paths, got {ensemble_size}")
    workers = get("ensemble.workers")
    if workers < 1:
        raise ConfigError(f"ensemble.workers: must be >= 1, got {workers}")
    if "growth" in sections and ensemble_size < GROWTH_FIT_PATHS:
        warnings.append(
            f"ensemble.size = {ensemble_size}: growth-exponent fits want at "
            f"least {GROWTH_FIT_PATHS} paths for a stable ensemble mean"
        )

    if sim is not None:  # what the run allocates per point and path; evolve keeps snapshots
        single = "ensemble" not in sections
        rows = 1 if single else ensemble_size
        points, per_point = sim.steps + 1, sim.point_bytes(snapshots=single)
        table = points * rows * per_point
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if table > memory:
            raise ConfigError(
                f"sim.t_end, sim.dt: {points} recorded points x {rows} path(s) x {per_point} "
                f"bytes need {table} bytes, more than the {memory} bytes of physical memory"
            )

    # GridSpec's own check on points (a power of two >= 8); the box does not matter
    selftest_points = _build(GridSpec, "selftest", get, dim=1, box_length=1.0).points

    if strict and warnings:
        raise ConfigError(
            "strict mode: " + " | ".join(warnings)
        )

    # Canonical echo: every key the kind consumes, with its effective
    # value. Execution topology (ensemble.workers) and artifact location
    # (output.dir) are excluded: they cannot affect results, so they must
    # not affect the config hash.
    resolved: list[tuple[str, str]] = []
    for key in sorted(_SCHEMA):
        if key in ("ensemble.workers", "output.dir") or not kind.reads(key):
            continue
        if key.startswith("noise.") and noise is None:
            continue
        val = get(key)
        if isinstance(val, tuple):
            rendered = ",".join(repr(v) for v in val)
        else:
            rendered = repr(val) if isinstance(val, float) else str(val)
        resolved.append((key, rendered))

    return ExperimentConfig(
        kind=name,
        grid=grid,
        sim=sim,
        initial=initial,
        noise=noise,
        ensemble_size=ensemble_size,
        workers=workers,
        out_dir=str(get("output.dir")),
        scatter=scatter,
        growth=growth,
        tail=tail,
        regimes=regimes,
        selftest_points=selftest_points,
        warnings=tuple(warnings),
        resolved=tuple(resolved),
    )


def with_path_seed(config: ExperimentConfig, index: int) -> SimConfig:
    """Per-path simulation config: the base noise spec reseeded for one path."""
    if config.sim is None or config.noise is None:
        raise ConfigError(f"kind {config.kind!r} does not run seeded paths")
    reseeded = replace(config.noise, seed=path_seed(config.base_seed, index))
    return replace(config.sim, noise=reseeded)
