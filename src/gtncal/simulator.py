"""Reduced-order specimen simulator.

Stand-in for a finite-element model of a holed tensile specimen.  A 2D grid
of independent GTN material points covers the near-hole window of the gauge
section; each point is driven by the elastic stress-concentration field of a
circular hole (Kirsch solution) scaled by the nominal axial strain and local
amplification factors:

    d_eps_local = T_sig(x, y) * d_eps_nominal
                  * (1 + kappa * f_star)          # damage feedback
                  * (1 + plastic_gain * eps_p)    # elastic-plastic concentration
                  * (1 + loc_gain * softening)    # post-peak band localization

The damage feedback concentrates strain where voids have grown.  The plastic
gain represents the growth of notch strain concentration beyond its elastic
value once the ligament yields (Neuber-type effect, linearized).  The
localization term applies only inside the net-section band and is driven by
the relative force drop from the running peak, standing in for the
deformation-rate concentration a softening structure develops under
displacement control; the amplification product is capped to keep the
explicit integration bounded.

The reported force is the engineering force over the net section,

    F = mean_over_net_row( sigma * exp(-eps_axial) ) * net_area,

where the exponential accounts for cross-section reduction under plastic
incompressibility.  This guarantees a Considere-type force peak even for
weakly damaging parameter sets, after which the localization feedback drives
the hottest point to f >= f_f (the analog of first element deletion), ending
the run.  The strain snapshot is captured at the first post-peak instant
where F <= capture_ratio * F_max.

Points in the net-section band also carry an elevated stress triaxiality,
representing the through-thickness constraint a plane model cannot resolve;
without it the uniaxial dilatation of the GTN flow rule is too weak to drive
void growth to failure at realistic displacements.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass
from pathlib import Path

import numpy as np

from .errors import (
    AlignmentError,
    CurveFormatError,
    NumericError,
    ParameterError,
    SimulationIncompleteError,
    require_finite,
)
from .formats import read_csv, write_csv, write_json
from .material import (
    BATCH_STEP_CAP,
    PARAM_NAMES,
    FixedGtnConstants,
    GtnParams,
    GtnPointBatch,
    VoceParams,
)

NOMINAL_STEP_LIMIT = 1.0e-4


@dataclass(frozen=True)
class LoadingProgram:
    """Displacement-controlled loading and specimen geometry (mm, s)."""

    displacement_rate: float = 0.02
    max_displacement: float = 8.0
    time_step: float = 0.1953125
    gauge_length: float = 50.0
    width: float = 12.5
    thickness: float = 3.5
    hole_radius: float = 1.0

    def __post_init__(self) -> None:
        require_finite(**vars(self))
        for name, value in vars(self).items():
            if not value > 0.0:
                raise ParameterError(f"key {name!r} must be positive, not {value}")
        if self.nominal_strain_increment >= NOMINAL_STEP_LIMIT:
            raise ParameterError(
                "time_step too large: nominal strain increment "
                f"{self.nominal_strain_increment:.2e} must stay below {NOMINAL_STEP_LIMIT:.0e}"
            )
        if 2.0 * self.hole_radius >= self.width:
            raise ParameterError(
                f"key 'hole_radius' ({self.hole_radius}): the hole diameter must be "
                f"smaller than the specimen 'width' ({self.width})"
            )

    @property
    def nominal_strain_increment(self) -> float:
        return self.displacement_rate * self.time_step / self.gauge_length

    @property
    def net_area(self) -> float:
        return (self.width - 2.0 * self.hole_radius) * self.thickness


#: The least value of each bounded SimulatorSettings field: a grid of at
#: least 8 x 4 cells, nonnegative gains, an amplification cap of at least 1.
_SETTINGS_MINIMA = {
    "nx": 8, "ny": 4, "amp_cap": 1.0, "kappa": 0.0, "loc_gain": 0.0, "plastic_gain": 0.0,
    "far_stride": 1,
}
#: The open interval each remaining bounded SimulatorSettings field lies in.
_SETTINGS_INTERVALS = {
    "elastic_modulus": (0.0, math.inf), "poisson_ratio": (-1.0, 0.5), "capture_ratio": (0.0, 1.0),
}


@dataclass(frozen=True)
class SimulatorSettings:
    """Discretization and reduced-order model gains."""

    nx: int = 72
    ny: int = 36
    kappa: float = 2.0
    plastic_gain: float = 5.0
    loc_gain: float = 100.0
    amp_cap: float = 25.0
    triaxiality: float = 1.0
    far_triaxiality: float = 1.0 / 3.0
    elastic_modulus: float = 70.0e3
    poisson_ratio: float = 0.33
    capture_ratio: float = 0.98
    far_stride: int = 6

    def __post_init__(self) -> None:
        require_finite(**vars(self))
        for name, least in _SETTINGS_MINIMA.items():
            if not getattr(self, name) >= least:
                raise ParameterError(
                    f"key {name!r} must be at least {least}, not {getattr(self, name)}"
                )
        for name, (lo, hi) in _SETTINGS_INTERVALS.items():
            if not lo < getattr(self, name) < hi:
                raise ParameterError(
                    f"key {name!r} must lie in ({lo}, {hi}), not {getattr(self, name)}"
                )
        # The band is the cells above the far-field triaxiality; without it
        # there is no net-section force.
        if not self.triaxiality > self.far_triaxiality:
            raise ParameterError(
                f"key 'triaxiality' must exceed 'far_triaxiality' ({self.far_triaxiality}), "
                f"not {self.triaxiality}"
            )


@dataclass
class CurveSegment:
    """Force-displacement record up to failure: the last row is the failure
    point, so the last displacement is the failure displacement d_f."""

    displacements: np.ndarray
    forces: np.ndarray

    def __post_init__(self) -> None:
        self.displacements = np.asarray(self.displacements, dtype=float)
        self.forces = np.asarray(self.forces, dtype=float)
        d = self.displacements
        if d.shape != self.forces.shape or d.ndim != 1 or d.size == 0:
            raise CurveFormatError("displacements and forces must be equal-length nonempty vectors")
        if not np.all(np.diff(self.displacements) > 0.0):
            raise CurveFormatError("displacements must be strictly increasing")
        if not np.all(np.isfinite(self.forces)) or np.any(self.forces < 0.0):
            raise CurveFormatError("forces must be finite and nonnegative")

    def __len__(self) -> int:
        return self.displacements.size

    @property
    def failure_displacement(self) -> float:
        return float(self.displacements[-1])


@dataclass
class StrainSnapshot:
    """In-plane strain field on the simulator grid at the capture instant.
    Every array has the grid's shape (ny, nx), the mask's."""

    x: np.ndarray  # cell-center coordinates
    y: np.ndarray
    mask: np.ndarray  # True where material exists (hole excluded)
    e11: np.ndarray
    e12: np.ndarray
    e22: np.ndarray

    def __post_init__(self) -> None:
        shape = np.shape(self.mask)
        for name in ("x", "y", "mask", "e11", "e12", "e22"):
            arr = np.asarray(getattr(self, name))
            if arr.shape != shape:
                raise ParameterError(f"{name} must have the mask's shape {shape}")
            setattr(self, name, arr)
        for name in ("e11", "e12", "e22"):
            vals = getattr(self, name)[self.mask]
            if not np.all(np.isfinite(vals)):
                raise NumericError(f"non-finite strain values in {name}")

    def masked_rows(self, *fields: np.ndarray) -> np.ndarray:
        """One row per masked cell in row-major order: x, y, then each of
        ``fields``, arrays of the grid's shape."""
        m = self.mask.ravel()
        return np.column_stack([a.ravel()[m] for a in (self.x, self.y, *fields)])


@dataclass
class SimulationResult:
    """One completed run.  ``capture_ratio`` is the configured snapshot
    threshold on F / F_max, ``achieved_ratio`` the run's F / F_max at the
    captured instant."""

    curve: CurveSegment
    snapshot: StrainSnapshot
    stress_field: np.ndarray
    vvf_field: np.ndarray
    params: GtnParams
    capture_ratio: float
    achieved_ratio: float

    @property
    def peak_force(self) -> float:
        return float(self.curve.forces.max())


@dataclass(frozen=True)
class _GridTemplates:
    x: np.ndarray
    y: np.ndarray
    mask: np.ndarray
    t_sig: np.ndarray  # sigma_yy / S, the material driving template
    t_e11: np.ndarray  # strain templates (unit far-field axial strain)
    t_e12: np.ndarray
    t_e22: np.ndarray
    triaxiality: np.ndarray
    net_row: np.ndarray  # bool, cells entering the force average
    flat_index: np.ndarray  # indices of masked-in cells, row-major


def kirsch_stress_field(x: np.ndarray, y: np.ndarray, a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elastic stresses around a circular traction-free hole, unit far-field
    tension along y.  Returns (sxx, sxy, syy) normalized by the far field."""
    r2 = x * x + y * y
    r2 = np.maximum(r2, a * a)  # inside-hole values are masked downstream
    ar2 = a * a / r2
    ar4 = ar2 * ar2
    # Polar angle measured from the loading (y) axis.
    ct = y / np.sqrt(r2)
    stq = x / np.sqrt(r2)
    c2t = ct * ct - stq * stq
    s2t = 2.0 * ct * stq
    srr = 0.5 * (1.0 - ar2) + 0.5 * (1.0 - 4.0 * ar2 + 3.0 * ar4) * c2t
    stt = 0.5 * (1.0 + ar2) - 0.5 * (1.0 + 3.0 * ar4) * c2t
    srt = -0.5 * (1.0 + 2.0 * ar2 - 3.0 * ar4) * s2t
    # Back to Cartesian components in the rotated frame (load axis first),
    # then relabel: axial = yy, transverse = xx.
    syy = srr * ct * ct - 2.0 * srt * stq * ct + stt * stq * stq
    sxx = srr * stq * stq + 2.0 * srt * stq * ct + stt * ct * ct
    sxy = (srr - stt) * stq * ct + srt * (ct * ct - stq * stq)
    return sxx, sxy, syy


def build_templates(program: LoadingProgram, settings: SimulatorSettings) -> _GridTemplates:
    """Grid over the near-hole window: full width, height = width/2 above the
    hole centerline (square cells at roughly the DIC resolution)."""
    nx, ny = settings.nx, settings.ny
    dx = program.width / nx
    dy = (program.width / 2.0) / ny
    xc = (np.arange(nx) + 0.5) * dx - program.width / 2.0
    yc = (np.arange(ny) + 0.5) * dy
    x, y = np.meshgrid(xc, yc)
    a = program.hole_radius
    mask = x * x + y * y >= a * a

    sxx, sxy, syy = kirsch_stress_field(x, y, a)
    nu = settings.poisson_ratio
    t_e22 = syy - nu * sxx
    t_e11 = sxx - nu * syy
    t_e12 = (1.0 + nu) * sxy
    t_sig = syy

    net_row = np.zeros_like(mask)
    net_row[0, :] = mask[0, :]
    # Elevated constraint inside the net-section band (one hole radius high),
    # uniaxial far from it.
    band = mask & (y <= a)
    tri = np.where(band, settings.triaxiality, settings.far_triaxiality)

    flat_index = np.flatnonzero(mask.ravel())
    return _GridTemplates(
        x=x, y=y, mask=mask, t_sig=t_sig, t_e11=t_e11, t_e12=t_e12, t_e22=t_e22,
        triaxiality=tri, net_row=net_row, flat_index=flat_index,
    )


class _BatchState:
    """Per-run bookkeeping for a batched simulation sweep.

    Capture and completion arrays are indexed by the original run id; the
    evolving arrays follow the (repacked) live batch.  Cell axes run over
    the distinct cells of the band and of the far field.
    """

    def __init__(self, n_runs: int, n_band: int, n_far: int, n_steps: int):
        self.alive = np.arange(n_runs)  # original ids of the live rows
        # Integrals of amplified nominal strain (snapshot strain = T * amp).
        self.amp_band = np.zeros((n_runs, n_band))
        self.amp_far = np.zeros((n_runs, n_far))
        self.nom_pending = np.zeros(n_runs)  # nominal strain since last far step
        self.last_force = np.zeros(n_runs)
        self.forces = np.zeros((n_runs, n_steps + 1))
        self.fmax = np.zeros(n_runs)
        self.captured = np.zeros(n_runs, dtype=bool)
        self.capture_force = np.full(n_runs, np.nan)
        self.capture_amp_band = np.zeros((n_runs, n_band))
        self.capture_amp_far = np.zeros((n_runs, n_far))
        self.capture_sigma_band = np.zeros((n_runs, n_band))
        self.capture_sigma_far = np.zeros((n_runs, n_far))
        self.capture_f_band = np.zeros((n_runs, n_band))
        self.capture_f_far = np.zeros((n_runs, n_far))
        self.failed_step = np.full(n_runs, -1, dtype=int)

    def repack(self, keep: np.ndarray, batch, far) -> None:
        self.alive = self.alive[keep]
        self.amp_band = np.ascontiguousarray(self.amp_band[keep])
        self.amp_far = np.ascontiguousarray(self.amp_far[keep])
        self.nom_pending = self.nom_pending[keep]
        self.last_force = self.last_force[keep]
        batch.take_runs(keep)
        far.take_runs(keep)


def _substep(batch: GtnPointBatch, d_local: np.ndarray) -> None:
    """Apply a (run, cell) strain increment in equal per-run substeps.

    Per-run substepping keeps every local increment under the batch
    stability cap without coupling runs to each other; a run needing fewer
    substeps than the slowest one gets zero increments for the rest.
    """
    max_local = np.max(np.abs(d_local), axis=1)
    n_sub = np.maximum(1, np.ceil(max_local / BATCH_STEP_CAP).astype(int))
    if int(n_sub.max()) == 1:
        batch.step(d_local)
        return
    d_sub = d_local / n_sub[:, None]
    for s in range(int(n_sub.max())):
        live = (s < n_sub)[:, None]
        batch.step(np.where(live, d_sub, 0.0))


def _distinct_cells(t_sig: np.ndarray, tri: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (t_sig, triaxiality) pairs of a cell group, compared bit
    for bit, and the inverse index that maps every cell to its pair."""
    keys = np.column_stack([t_sig, tri]).view(np.int64)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return t_sig[first], tri[first], inverse.ravel()


def simulate_batch(
    params_list: list[GtnParams],
    program: LoadingProgram,
    settings: SimulatorSettings,
) -> list[SimulationResult | SimulationIncompleteError]:
    """Run many specimens side by side.

    A cell's trajectory depends only on its driving template value t_sig,
    its triaxiality and the run, so each distinct (t_sig, triaxiality) pair
    of the band and of the far field is integrated once; the force row and
    the captured fields are gathered back to every cell through the inverse
    index, which leaves every output bit-identical to integrating each cell.

    Per-run results match single-run calls to round-off (rtol 1e-11 on
    forces), not bitwise.  With two or more runs the (run, net cell) force
    block comes out F-ordered, so ``mean(axis=1)`` adds a run's net cells
    one after another, while a single run's contiguous row is summed
    pairwise; the forces differ in the last bits from the first step, and
    the material states follow once softening feeds the force back."""
    consts = FixedGtnConstants()
    voce = VoceParams()

    tpl = build_templates(program, settings)
    idx = tpl.flat_index
    n_runs = len(params_list)
    t_sig_all = tpl.t_sig.ravel()[idx]
    tri_all = tpl.triaxiality.ravel()[idx]
    band_cells = tri_all > settings.far_triaxiality
    far_cells = ~band_cells
    idx_band = idx[band_cells]
    idx_far = idx[far_cells]
    t_band, tri_band, inv_band = _distinct_cells(t_sig_all[band_cells], tri_all[band_cells])
    t_far, _, inv_far = _distinct_cells(t_sig_all[far_cells], tri_all[far_cells])
    n_band, n_far = t_band.size, t_far.size
    # The net row's cells in grid order, as columns of the distinct band.
    net_cols = inv_band[np.flatnonzero(tpl.net_row.ravel()[idx_band])]

    theta = np.array([astuple(p) for p in params_list])
    par = {name: theta[:, j : j + 1] for j, name in enumerate(PARAM_NAMES)}
    batch = GtnPointBatch(
        (n_runs, n_band), consts, par, voce, settings.elastic_modulus, triaxiality=tri_band
    )
    # Far-field cells evolve slowly; they are advanced every far_stride-th
    # step with the accumulated nominal increment (uniaxial stress state).
    far = GtnPointBatch(
        (n_runs, n_far), consts, par, voce, settings.elastic_modulus,
        triaxiality=settings.far_triaxiality,
    )

    d_eps_nom = program.nominal_strain_increment
    n_steps = int(math.ceil(program.max_displacement / (d_eps_nom * program.gauge_length)))
    state = _BatchState(n_runs, n_band, n_far, n_steps)
    t_sig_net = t_band[net_cols]

    area = program.net_area
    stride = settings.far_stride

    def amplification(f_star, eps_p, localization=1.0):
        amp = (1.0 + settings.kappa * f_star) * (1.0 + settings.plastic_gain * eps_p)
        amp *= localization
        return np.minimum(amp, settings.amp_cap, out=amp)

    for k in range(1, n_steps + 1):
        ids = state.alive
        if ids.size == 0:
            break
        fmax = state.fmax[ids]
        softening = np.where(
            fmax > 0.0,
            np.maximum(0.0, 1.0 - state.last_force / np.maximum(fmax, 1e-300)),
            0.0,
        )
        amp = amplification(
            batch.f_star, batch.eps_p, 1.0 + settings.loc_gain * softening[:, None]
        )
        _substep(batch, t_band * (d_eps_nom * amp))
        state.amp_band += d_eps_nom * amp
        state.nom_pending += d_eps_nom

        far_turn = (k % stride == 0) or (k == n_steps)
        if far_turn:
            amp_far = amplification(far.f_star, far.eps_p)
            _substep(far, t_far * (state.nom_pending[:, None] * amp_far))
            state.amp_far += state.nom_pending[:, None] * amp_far
            state.nom_pending[:] = 0.0

        eps_row = t_sig_net * state.amp_band[:, net_cols]
        force = (batch.sigma[:, net_cols] * np.exp(-eps_row)).mean(axis=1) * area
        state.last_force = force
        state.forces[ids, k] = force
        newly_failed = batch.failed.any(axis=1)
        if far_turn:
            newly_failed = newly_failed | far.failed.any(axis=1)

        rising = force > fmax
        fmax = np.where(rising, force, fmax)
        state.fmax[ids] = fmax
        # A new peak invalidates an earlier capture; capture again at the
        # first crossing below the ratio threshold.
        captured = state.captured[ids] & ~rising
        crossing = ~captured & (force <= settings.capture_ratio * fmax) & (fmax > 0.0)
        state.captured[ids] = captured | crossing
        if crossing.any():
            rows = np.flatnonzero(crossing)
            orig = ids[rows]
            state.capture_force[orig] = force[rows]
            state.capture_amp_band[orig] = state.amp_band[rows]
            amp_far_now = amplification(far.f_star[rows], far.eps_p[rows])
            state.capture_amp_far[orig] = (
                state.amp_far[rows] + state.nom_pending[rows, None] * amp_far_now
            )
            state.capture_sigma_band[orig] = batch.sigma[rows]
            state.capture_sigma_far[orig] = far.sigma[rows]
            state.capture_f_band[orig] = batch.f[rows]
            state.capture_f_far[orig] = far.f[rows]
        if newly_failed.any():
            state.failed_step[ids[newly_failed]] = k
            keep = np.flatnonzero(~newly_failed)
            state.repack(keep, batch, far)

    disps = np.arange(n_steps + 1) * (d_eps_nom * program.gauge_length)

    results: list[SimulationResult | SimulationIncompleteError] = []
    shape = (settings.ny, settings.nx)

    def scatter(band_values, far_values, fill=0.0):
        grid = np.full(settings.ny * settings.nx, fill)
        grid[idx_band] = band_values[inv_band]
        grid[idx_far] = far_values[inv_far]
        return grid.reshape(shape)

    for i, params in enumerate(params_list):
        if state.failed_step[i] < 0:
            results.append(
                SimulationIncompleteError(
                    "no failure before max_displacement "
                    f"({program.max_displacement} mm) for params {params}"
                )
            )
            continue
        if not state.captured[i]:
            results.append(
                SimulationIncompleteError(
                    "no post-peak softening reached the capture ratio before failure "
                    f"for params {params}"
                )
            )
            continue
        last = int(state.failed_step[i])
        g = scatter(state.capture_amp_band[i], state.capture_amp_far[i])
        results.append(
            SimulationResult(
                curve=CurveSegment(disps[: last + 1].copy(), state.forces[i, : last + 1].copy()),
                snapshot=StrainSnapshot(
                    tpl.x, tpl.y, tpl.mask, tpl.t_e11 * g, tpl.t_e12 * g, tpl.t_e22 * g
                ),
                stress_field=scatter(state.capture_sigma_band[i], state.capture_sigma_far[i]),
                vvf_field=scatter(state.capture_f_band[i], state.capture_f_far[i], consts.f0),
                params=params,
                capture_ratio=settings.capture_ratio,
                achieved_ratio=float(state.capture_force[i] / state.fmax[i]),
            )
        )
    return results


def simulate_specimen_full(
    params: GtnParams,
    program: LoadingProgram,
    settings: SimulatorSettings,
) -> SimulationResult:
    result = simulate_batch([params], program, settings)[0]
    if isinstance(result, SimulationIncompleteError):
        raise result
    return result


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_curve_csv(path: str | Path, curve: CurveSegment) -> None:
    data = np.column_stack([curve.displacements, curve.forces])
    write_csv(path, data, header="displacement,force")


def read_curve_csv(path: str | Path) -> CurveSegment:
    """Read a curve CSV; its last row is the failure point."""
    data = read_csv(path, skip_header=True)
    return CurveSegment(data[:, 0], data[:, 1])


def write_snapshot_csv(path: str | Path, snap: StrainSnapshot) -> None:
    write_csv(path, snap.masked_rows(snap.e11, snap.e12, snap.e22), header="x,y,e11,e12,e22")


def read_snapshot_csv(path: str | Path, grid: _GridTemplates) -> StrainSnapshot:
    """Read a flat snapshot CSV onto ``grid`` (from ``build_templates``).

    The file's x and y columns must match the grid's masked cells, in
    row-major order, within 1e-6 of the smaller cell size; a file from
    another grid or with reordered rows raises AlignmentError.
    """
    data = read_csv(path, skip_header=True)
    m = grid.mask.ravel()
    if data.shape[0] != int(m.sum()):
        raise CurveFormatError("snapshot CSV row count does not match the grid mask")
    tol = 1e-6 * min(grid.x[0, 1] - grid.x[0, 0], grid.y[1, 0] - grid.y[0, 0])
    for j, axis in enumerate((grid.x, grid.y)):
        if not np.allclose(data[:, j], axis.ravel()[m], rtol=0.0, atol=tol):
            raise AlignmentError(
                f"{path}: snapshot coordinates do not match the reference grid's masked cells"
            )
    fields = []
    for j in (2, 3, 4):
        values = np.zeros(grid.mask.shape).ravel()
        values[m] = data[:, j]
        fields.append(values.reshape(grid.mask.shape))
    return StrainSnapshot(grid.x, grid.y, grid.mask, *fields)


def write_sidecar_json(
    path: str | Path,
    result: SimulationResult,
    extra: dict,
) -> None:
    payload = {
        "failure_displacement": result.curve.failure_displacement,
        "peak_force": result.peak_force,
        "capture_ratio": result.capture_ratio,
        "achieved_ratio": result.achieved_ratio,
        "params": asdict(result.params),
    }
    payload.update(extra)
    write_json(path, payload)
