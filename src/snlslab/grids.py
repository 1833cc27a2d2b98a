"""Periodic grids, immutable complex fields, and spectral bookkeeping.

The physical domain is the periodic box [-L/2, L/2)^dim sampled on a
uniform grid with a power-of-two point count per axis, so every spectral
operation reduces to an FFT with frequencies 2*pi/L times the standard
DFT integer layout.

It also owns the batch cap: every working array of rows (ensemble batch,
recorder chunk, tail-fit chunk, noise-scan weight block) is sized by
``batch_rows``, which reads BATCH_FIELD_BYTES at call time.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "GridSpec",
    "Field",
    "gradient",
    "gradients",
    "row_sums",
    "boundary_mass_fraction",
    "boundary_mass_fractions",
    "spectral_tail_fraction",
    "spectral_tail_fractions",
    "batch_rows",
    "batches",
]

#: bytes one working array of rows may hold: ensembles split their paths
#: into batches of at most this size, and a run records its functionals
#: in chunks of max(1, BATCH_FIELD_BYTES // batch bytes) steps. On a
#: 2-core Xeon at N=256 (light recording, numpy 2.4.6), batches of 16 to
#: 256 paths took 10-15 us per path-step, with no size clearly fastest.
BATCH_FIELD_BYTES = 1 << 17


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-L/2, L/2)^dim.

    Derived arrays (coordinates, frequencies, multipliers) are cached on
    first use; they are not dataclass fields, so equality and hashing see
    only (dim, points, box_length).
    """

    dim: int
    points: int
    box_length: float

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim!r}")
        if not isinstance(self.points, (int, np.integer)) or isinstance(self.points, bool):
            raise ValueError(f"points must be an integer, got {self.points!r}")
        if self.points < 8 or not _is_power_of_two(int(self.points)):
            raise ValueError(f"points must be a power of two >= 8, got {self.points}")
        if not (isinstance(self.box_length, (int, float, np.floating)) and np.isfinite(self.box_length) and self.box_length > 0):
            raise ValueError(f"box_length must be positive and finite, got {self.box_length!r}")
        object.__setattr__(self, "points", int(self.points))
        object.__setattr__(self, "box_length", float(self.box_length))

    # -- scalar geometry ---------------------------------------------------

    @property
    def dx(self) -> float:
        return self.box_length / self.points

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim

    @property
    def num_cells(self) -> int:
        return self.points**self.dim

    # -- transforms over the grid axes of a (paths, *grid) array --------

    def fft(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Unnormalized forward DFT over the last dim axes of values,
        written into out (a fresh complex array if None; out may be values).

        Calls, last axis first, the pocketfft gufunc np.fft.fft calls, with
        the factor it passes, so each row is bit-identical to np.fft.fftn of
        its field; skipping numpy's Python wrappers takes a (4, 128) call
        from ~8 to ~5 µs (numpy 2.4.6, 2-core Xeon). Where numpy has no
        private np.fft._pocketfft_umath, np.fft.fft runs each axis
        instead: the same kernel and factor, so the same bytes. numpy.fft
        is looked up per call, so it loads at the first transform, not at
        import.
        """
        return self._transform("fft", 1.0, values, out)

    def ifft(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Inverse of fft, bit-identical to np.fft.ifftn in the same way."""
        # np.fft.ifft's factor, np.reciprocal(points, dtype=float): exact for 2^m
        return self._transform("ifft", 1.0 / self.points, values, out)

    def _transform(self, name: str, factor: float, values: np.ndarray,
                   out: np.ndarray | None) -> np.ndarray:
        if out is None:
            out = np.empty(values.shape, dtype=complex)
        kernels = getattr(np.fft, "_pocketfft_umath", None)
        if kernels is None:
            public = getattr(np.fft, name)
            public(values, out=out)
            for axis in range(-2, -self.dim - 1, -1):
                public(out, axis=axis, out=out)
            return out
        kernel = getattr(kernels, name)
        kernel(values, factor, out=out)
        for axis in range(-2, -self.dim - 1, -1):
            kernel(out, factor, axes=[(axis,), (), (axis,)], out=out)
        return out

    # -- cached arrays -----------------------------------------------------

    def _cached(self, name: str, build: Callable[[], np.ndarray]) -> np.ndarray:
        try:
            return self.__dict__[name]
        except KeyError:
            arr = build()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
            return arr

    def axis_coords(self) -> np.ndarray:
        """Sample points of one axis: -L/2 + j*dx for j = 0..N-1."""
        return self._cached(
            "_axis_coords",
            lambda: -0.5 * self.box_length + self.dx * np.arange(self.points),
        )

    def axis_freqs(self) -> np.ndarray:
        """One axis of frequencies, standard DFT layout scaled by 2*pi/L."""
        return self._cached(
            "_axis_freqs",
            lambda: 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.dx),
        )

    def _broadcast(self, axis_values: np.ndarray, axis: int) -> np.ndarray:
        shape = [1] * self.dim
        shape[axis] = self.points
        return axis_values.reshape(shape)

    def coords(self) -> tuple[np.ndarray, ...]:
        """Broadcastable coordinate arrays, one per axis."""
        x = self.axis_coords()
        return tuple(self._broadcast(x, a) for a in range(self.dim))

    def freqs(self) -> tuple[np.ndarray, ...]:
        """Broadcastable frequency arrays, one per axis."""
        k = self.axis_freqs()
        return tuple(self._broadcast(k, a) for a in range(self.dim))

    def k_squared(self) -> np.ndarray:
        """|k|^2 on the full grid (Laplacian symbol up to sign)."""

        def build() -> np.ndarray:
            out = np.zeros(self.shape)
            for k in self.freqs():
                out = out + k**2
            return out

        return self._cached("_k_squared", build)

    def propagator(self, dt: float) -> np.ndarray:
        """The free propagator's Fourier multiplier e^{i dt |k|²}, read-only.

        Only the last dt's array is kept: a run that steps with one dt
        builds it once, and a new dt replaces it.
        """
        kept = self.__dict__.get("_propagator")
        if kept is not None and kept[0] == dt:
            return kept[1]
        arr = np.exp(1j * dt * self.k_squared())
        arr.flags.writeable = False
        object.__setattr__(self, "_propagator", (dt, arr))
        return arr

    def radius_squared(self) -> np.ndarray:
        """|x|^2 on the full grid."""

        def build() -> np.ndarray:
            out = np.zeros(self.shape)
            for x in self.coords():
                out = out + x**2
            return out

        return self._cached("_radius_squared", build)

    def derivative_symbols(self) -> tuple[np.ndarray, ...]:
        """Broadcastable 1j*k arrays, one per axis: the symbols of ∂_j."""
        ik = self._cached("_axis_ik", lambda: 1j * self.axis_freqs())
        return tuple(self._broadcast(ik, a) for a in range(self.dim))

    def outside_half_box(self) -> np.ndarray:
        """Points outside the centred half-box [-L/4, L/4]^dim."""

        def build() -> np.ndarray:
            inside = np.ones(self.shape, dtype=bool)
            for x in self.coords():
                inside = inside & (np.abs(x) <= self.box_length / 4.0)
            return ~inside

        return self._cached("_outside_half_box", build)

    def outer_frequencies(self) -> np.ndarray:
        """Frequencies with some |k_j| above two thirds of the axis Nyquist."""

        def build() -> np.ndarray:
            cutoff = (2.0 / 3.0) * np.pi / self.dx
            outer = np.zeros(self.shape, dtype=bool)
            for k in self.freqs():
                outer = outer | (np.abs(k) > cutoff)
            return outer

        return self._cached("_outer_frequencies", build)


@dataclass(frozen=True, eq=False)
class Field:
    """Complex128 samples on a grid; the sample array is immutable.

    Construction copies and freezes the input and rejects non-finite
    entries, so any NaN produced by an evolution is caught at the first
    wrap into a Field.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=np.complex128, copy=True)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} does not match grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite samples")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def from_function(cls, grid: GridSpec, fn: Callable[..., np.ndarray]) -> "Field":
        """Sample fn(x1, ..., xdim) on the grid."""
        vals = np.broadcast_to(np.asarray(fn(*grid.coords()), dtype=np.complex128), grid.shape)
        return cls(grid, vals)

    @classmethod
    def zeros(cls, grid: GridSpec) -> "Field":
        return cls(grid, np.zeros(grid.shape, dtype=np.complex128))

    def spectrum(self) -> np.ndarray:
        """Unnormalized forward DFT of the samples."""
        return self.grid.fft(self.values)

    def __add__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scalar: complex) -> "Field":
        return Field(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def _check_same_grid(self, other: "Field") -> None:
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")


def gradients(grid: GridSpec, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Spectral gradient of every row of a (paths, *grid) array, one
    (paths, *grid) array per axis."""
    hat = grid.fft(values)
    return tuple(grid.ifft(ik * hat) for ik in grid.derivative_symbols())


def gradient(field: Field) -> tuple[Field, ...]:
    """Spectral gradient, one component field per axis."""
    return tuple(Field(field.grid, g[0]) for g in gradients(field.grid, field.values[None]))


def row_sums(values: np.ndarray) -> np.ndarray:
    """Sum of each row of a (paths, *grid) array over its grid axes.

    Each C-contiguous row is summed as one run, exactly as ``.sum()``
    sums a single field, so batched and per-field sums agree bit for bit.
    """
    return np.add.reduce(values.reshape(len(values), -1), axis=1)  # .sum without its wrapper


def batch_rows(row_bytes: int) -> int:
    """Rows of row_bytes each that fit in BATCH_FIELD_BYTES, at least one."""
    return max(1, BATCH_FIELD_BYTES // row_bytes)


def batches(size: int, row_bytes: int, workers: int = 1) -> list[tuple[int, int]]:
    """Split indices 0..size-1 into [start, stop) batches of at most
    batch_rows(row_bytes) rows; with several workers there are at least
    as many batches as workers."""
    per = batch_rows(row_bytes)
    if workers > 1:
        per = min(per, -(-size // workers))
    return [(start, min(start + per, size)) for start in range(0, size, per)]


def _masked_share(density: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-row share of density on a grid mask; 0 for an all-zero row."""
    total = row_sums(density)
    # density[:, mask] comes out F-ordered; contiguous rows sum like one field's
    part = np.ascontiguousarray(density[:, mask]).sum(axis=1)
    return np.divide(part, total, out=np.zeros_like(total), where=total != 0.0)


def boundary_mass_fractions(grid: GridSpec, values: np.ndarray,
                            rho: np.ndarray | None = None) -> np.ndarray:
    """boundary_mass_fraction of every row of a (paths, *grid) array; rho,
    if given, is |values|² already formed by the caller."""
    rho = values.real**2 + values.imag**2 if rho is None else rho
    return _masked_share(rho, grid.outside_half_box())


def spectral_tail_fractions(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """spectral_tail_fraction of every row of a (paths, *grid) array."""
    hat = grid.fft(values)
    return _masked_share(hat.real**2 + hat.imag**2, grid.outer_frequencies())


def boundary_mass_fraction(field: Field) -> float:
    """Fraction of the L2 mass outside the centered half-box.

    The half-box is [-L/4, L/4]^dim; a field that genuinely lives inside
    the computational box keeps this far below any truncation tolerance,
    while wrap-around or non-decaying data pushes it toward order one.
    """
    return float(boundary_mass_fractions(field.grid, field.values[None])[0])


def spectral_tail_fraction(field: Field) -> float:
    """Fraction of spectral energy carried by the outer third of frequencies.

    Flags under-resolution: a well-resolved field keeps essentially no
    energy at |k| above two thirds of the axis Nyquist frequency.
    """
    return float(spectral_tail_fractions(field.grid, field.values[None])[0])

