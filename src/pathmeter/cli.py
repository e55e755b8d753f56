"""Config-driven experiment runner.

Reads a JSON experiment description, dispatches to the compute modules,
and writes plot-ready CSV/JSON tables plus a residual report. One
experiment per invocation; outputs are byte-stable for a fixed config
and seed (timings go to stderr, never into the output files).

Exit codes: 0 all residuals pass, 1 residual failure, 2 configuration or
I/O error, 3 resource/grid cap (path cap, Nyquist, grid coverage).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import (
    CapExceeded,
    ConfigInvalid,
    GridTooSmall,
    NyquistViolation,
    PathMeterError,
)
from .hilbert import exact_propagator, require_hermitian, spectral_decompose
from .meters import (
    CoarseGrainKernel,
    LambdaGrid,
    aligned_grid,
    amplitude_field,
    binned_field_residual,
    coarse_grain,
    fourier_consistency_check,
    marginal_residual,
    probabilities,
)
from .mensky import MenskyConfig, ReadoutRecord, record_evolve, weak_limit_check, weak_meter_array
from .pathsum import binned_measurement_amplitude
from .timegrid import PathFunctionalSpec, SwitchingFunction, TimeGrid
from .transforms import apply_kernel, finite_time_kernel, von_neumann_basis_change
from . import particle1d

SCHEMA_VERSION = 1
CSV_CELL_BYTES = 25  # longest float repr (24 characters) plus its separator
CSV_BUFFER_MAX = 32 << 20
ROUTES = ("paths", "lambda", "mensky", "transform", "crosscheck")

EXIT_PASS = 0
EXIT_RESIDUAL = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3

DEFAULT_TOLERANCES = {
    "completeness": 1e-12,
    "crosscheck": 1e-10,
    "marginal": 1e-10,
    "fourier_consistency": 1e-10,
    "probability_mass": 1e-6,
    "mensky_agreement": 1e-13,
    "boundary_flux": 1e-10,
    "kernel_unitarity": 1e-6,
    "kernel_roundtrip": 1e-6,
    "transform_field": 1e-8,
    "basis_change": 1e-12,
    "sum_rule": 1e-8,
}


@dataclass
class ResultBundle:
    metadata: dict
    tables: dict
    residuals: dict
    timings: dict = field(default_factory=dict)

    def passed(self) -> bool:
        return all(r["pass"] for r in self.residuals.values())


def _residual(value, tol) -> dict:
    value = float(value)
    tol = float(tol)
    return {"value": value, "tol": tol, "pass": bool(value <= tol)}


# ---------------------------------------------------------------- config


def _need(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ConfigInvalid(f"{path}.{key}", "missing required field")
    return cfg[key]


def _number(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigInvalid(path, f"expected a number, got {value!r}")
    return float(value)


def _positive(value, path: str) -> float:
    value = _number(value, path)
    if not (np.isfinite(value) and value > 0):
        raise ConfigInvalid(path, f"expected a finite number > 0, got {value!r}")
    return value


def _integer(value, path: str, minimum: int = 1, power_of_two: bool = False) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigInvalid(path, f"expected an integer, got {value!r}")
    if value < minimum or (power_of_two and value & (value - 1)):
        kind = "a power of two" if power_of_two else "an integer"
        raise ConfigInvalid(path, f"expected {kind} >= {minimum}, got {value}")
    return value


def _complex_matrix(entries, path: str) -> np.ndarray:
    """Matrix entries: numbers, or [re, im] pairs."""
    try:
        rows = []
        for r, row in enumerate(entries):
            vals = []
            for c, v in enumerate(row):
                if isinstance(v, (list, tuple)):
                    vals.append(complex(v[0], v[1]))
                else:
                    vals.append(complex(v))
            rows.append(vals)
        return np.asarray(rows, dtype=complex)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigInvalid(path, f"not a complex matrix: {exc}") from None


def _state_vector(entries, path: str) -> np.ndarray:
    try:
        out = []
        for v in entries:
            if isinstance(v, (list, tuple)):
                out.append(complex(v[0], v[1]))
            else:
                out.append(complex(v))
        return np.asarray(out, dtype=complex)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigInvalid(path, f"not a state vector: {exc}") from None


def _switching(cfg: dict, grid: TimeGrid, path: str) -> SwitchingFunction:
    kind = _need(cfg, "kind", path)
    if kind == "constant":
        return SwitchingFunction.constant(_number(_need(cfg, "value", path), f"{path}.value"))
    if kind == "impulse":
        return SwitchingFunction.impulse(_number(_need(cfg, "t0", path), f"{path}.t0"))
    if kind == "sampled":
        vals = _need(cfg, "values", path)
        if len(vals) != grid.steps:
            raise ConfigInvalid(f"{path}.values", f"need {grid.steps} samples")
        return SwitchingFunction.sampled([_number(v, f"{path}.values") for v in vals])
    raise ConfigInvalid(f"{path}.kind", f"unknown switching kind {kind!r}")


def _kernel(cfg: dict, grids, path: str) -> CoarseGrainKernel:
    kind = _need(cfg, "kind", path)
    if kind == "gaussian":
        width = _positive(_need(cfg, "width", path), f"{path}.width")
        return CoarseGrainKernel.gaussian(grids, (width,) * len(grids))
    if kind == "shift":
        offs = _number(_need(cfg, "offset", path), f"{path}.offset")
        return CoarseGrainKernel.shift(grids, (offs,) * len(grids))
    if kind == "quadratic_phase":
        b = _number(_need(cfg, "curvature", path), f"{path}.curvature")
        return CoarseGrainKernel.quadratic_phase(grids, (b,) * len(grids))
    raise ConfigInvalid(f"{path}.kind", f"unknown kernel kind {kind!r}")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid("<file>", f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigInvalid("<file>", f"not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigInvalid("<root>", "config must be a JSON object")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigInvalid("schema_version", f"expected {SCHEMA_VERSION}, got {version}")
    return cfg


class _Experiment:
    """Validated experiment pieces shared by the routes."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.route = _need(cfg, "route", "<root>")
        if self.route not in ROUTES:
            raise ConfigInvalid("route", f"must be one of {ROUTES}")
        self.seed = _integer(cfg.get("seed", 0), "seed", minimum=0)
        tcfg = _need(cfg, "time", "<root>")
        self.grid = TimeGrid(
            _positive(_need(tcfg, "total", "time"), "time.total"),
            _integer(_need(tcfg, "slices", "time"), "time.slices"),
        )
        tols = cfg.get("tolerances", {})
        if not isinstance(tols, dict):
            raise ConfigInvalid("tolerances", f"expected an object, got {tols!r}")
        unknown = sorted(set(tols) - set(DEFAULT_TOLERANCES))
        if unknown:
            raise ConfigInvalid(f"tolerances.{unknown[0]}", "unknown tolerance name")
        self.tolerances = dict(DEFAULT_TOLERANCES)
        self.tolerances.update({k: _number(v, f"tolerances.{k}") for k, v in tols.items()})

        scfg = _need(cfg, "system", "<root>")
        self.system_kind = _need(scfg, "kind", "system")
        if self.system_kind == "particle1d":
            self._build_particle(scfg)
        else:
            self._build_finite(scfg)

    # finite-dimensional systems -----------------------------------
    def _build_finite(self, scfg: dict) -> None:
        kind = self.system_kind
        if kind == "qubit":
            e1 = _number(scfg.get("epsilon1", 0.0), "system.epsilon1")
            e2 = _number(scfg.get("epsilon2", 1.0), "system.epsilon2")
            v = _number(scfg.get("coupling", 0.5), "system.coupling")
            self.hamiltonian = np.array([[e1, v], [v, e2]], dtype=complex)
            obs = self.cfg.get("observable", {"kind": "coordinates"})
        elif kind == "nlevel":
            self.hamiltonian = _complex_matrix(
                _need(scfg, "hamiltonian", "system"), "system.hamiltonian"
            )
            obs = _need(self.cfg, "observable", "<root>")
        elif kind == "random":
            dim = _integer(_need(scfg, "dim", "system"), "system.dim", minimum=2)
            rng = np.random.default_rng(self.seed)
            M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            self.hamiltonian = (M + M.conj().T) / 2
            obs = self.cfg.get("observable", {"kind": "coordinates"})
        else:
            raise ConfigInvalid("system.kind", f"unknown system {kind!r}")
        try:
            require_hermitian(self.hamiltonian, "system.hamiltonian")
        except PathMeterError as exc:
            raise ConfigInvalid("system.hamiltonian", str(exc)) from None

        dim = self.hamiltonian.shape[0]
        self.observable = self._observable_matrix(obs, dim, "observable")
        self.decomp = spectral_decompose(self.observable)

        psi = self.cfg.get("initial_state", "uniform")
        if psi == "uniform":
            self.psi0 = np.ones(dim, dtype=complex) / np.sqrt(dim)
        else:
            self.psi0 = _state_vector(psi, "initial_state")
            if self.psi0.size != dim:
                raise ConfigInvalid("initial_state", f"need {dim} amplitudes")

        mcfgs = _need(self.cfg, "meters", "<root>")
        if not isinstance(mcfgs, list) or not mcfgs:
            raise ConfigInvalid("meters", "need a non-empty list of meters")
        self.betas, self.lgrids, self.kernels = [], [], []
        for i, m in enumerate(mcfgs):
            beta = _switching(_need(m, "beta", f"meters[{i}]"), self.grid, f"meters[{i}].beta")
            self.betas.append(beta)
            gcfg = _need(m, "grid", f"meters[{i}]")
            L = _integer(_need(gcfg, "points", f"meters[{i}].grid"),
                         f"meters[{i}].grid.points", minimum=2, power_of_two=True)
            if gcfg.get("aligned", False):
                lg = aligned_grid(beta, self.grid, self.decomp, L)
            else:
                df = _positive(_need(gcfg, "df", f"meters[{i}].grid"), f"meters[{i}].grid.df")
                lg = LambdaGrid.from_df(L, df)
            self.lgrids.append(lg)
            self.kernels.append(m.get("kernel"))
        self.spec = PathFunctionalSpec(self.grid, tuple(self.betas))

    def _observable_matrix(self, obs, dim: int, path: str) -> np.ndarray:
        kind = _need(obs, "kind", path)
        if kind == "coordinates":
            return np.diag(np.arange(1, dim + 1, dtype=float)).astype(complex)
        if kind == "matrix":
            M = _complex_matrix(_need(obs, "entries", path), f"{path}.entries")
            if M.shape != (dim, dim):
                raise ConfigInvalid(f"{path}.entries", f"need a {dim}x{dim} matrix")
            try:
                return require_hermitian(M, path)
            except PathMeterError as exc:
                raise ConfigInvalid(path, str(exc)) from None
        raise ConfigInvalid(f"{path}.kind", f"unknown observable kind {kind!r}")

    # particle systems ----------------------------------------------
    def _build_particle(self, scfg: dict) -> None:
        if self.route != "lambda":
            raise ConfigInvalid("route", "particle1d systems support the lambda route only")
        n_x = _integer(_need(scfg, "n_x", "system"), "system.n_x",
                       minimum=2, power_of_two=True)
        x_min = _number(_need(scfg, "x_min", "system"), "system.x_min")
        dx = _positive(_need(scfg, "dx", "system"), "system.dx")
        mass = _positive(scfg.get("mass", 1.0), "system.mass")
        pk = _need(scfg, "packet", "system")
        self.psi_lattice = particle1d.LatticeWavefunction.gaussian(
            x_min, dx, n_x,
            _number(_need(pk, "center", "system.packet"), "system.packet.center"),
            _positive(_need(pk, "width", "system.packet"), "system.packet.width"),
            _number(pk.get("momentum", 0.0), "system.packet.momentum"),
            mass,
        )
        pcfg = scfg.get("potential", {"kind": "zero"})
        pkind = _need(pcfg, "kind", "system.potential")
        x = self.psi_lattice.x
        if pkind == "zero":
            self.potential = np.zeros(n_x)
        elif pkind == "barrier":
            lo = _number(_need(pcfg, "lo", "system.potential"), "system.potential.lo")
            hi = _number(_need(pcfg, "hi", "system.potential"), "system.potential.hi")
            h = _number(_need(pcfg, "height", "system.potential"), "system.potential.height")
            self.potential = np.where((x >= lo) & (x <= hi), h, 0.0)
        elif pkind == "samples":
            vals = _need(pcfg, "values", "system.potential")
            if len(vals) != n_x:
                raise ConfigInvalid("system.potential.values", f"need {n_x} samples")
            self.potential = np.asarray([float(v) for v in vals])
        else:
            raise ConfigInvalid("system.potential.kind", f"unknown potential {pkind!r}")

        mcfgs = _need(self.cfg, "meters", "<root>")
        if len(mcfgs) != 1:
            raise ConfigInvalid("meters", "particle1d runs use exactly one meter")
        m = mcfgs[0]
        beta = _switching(_need(m, "beta", "meters[0]"), self.grid, "meters[0].beta")
        fcfg = _need(m, "functional", "meters[0]")
        fkind = _need(fcfg, "kind", "meters[0].functional")
        if fkind == "region":
            lo = _number(_need(fcfg, "lo", "meters[0].functional"), "meters[0].functional.lo")
            hi = _number(_need(fcfg, "hi", "meters[0].functional"), "meters[0].functional.hi")
            self.functional = particle1d.CoordinateFunctional.region_indicator(
                self.psi_lattice, lo, hi, beta)
        elif fkind == "position":
            self.functional = particle1d.CoordinateFunctional.position(self.psi_lattice, beta)
        else:
            raise ConfigInvalid("meters[0].functional.kind", f"unknown functional {fkind!r}")
        gcfg = _need(m, "grid", "meters[0]")
        L = _integer(_need(gcfg, "points", "meters[0].grid"), "meters[0].grid.points",
                     minimum=2, power_of_two=True)
        df = _positive(_need(gcfg, "df", "meters[0].grid"), "meters[0].grid.df")
        self.lgrids = [LambdaGrid.from_df(L, df)]


# ---------------------------------------------------------------- tables


def _field_table(field) -> dict:
    g = field.grids[0]
    cols = {"f": g.f.copy()}
    states = field.states
    for k in range(states.shape[-1]):
        cols[f"re_{k}"] = states[..., k].real.reshape(-1)
        cols[f"im_{k}"] = states[..., k].imag.reshape(-1)
    return cols


def _bins_table(binned) -> dict:
    cols = {}
    M = binned.f_values.shape[1]
    if M == 1:
        cols["f"] = binned.f_values[:, 0].copy()
    else:
        for i in range(M):
            cols[f"f_{i}"] = binned.f_values[:, i].copy()
    for k in range(binned.states.shape[1]):
        cols[f"re_{k}"] = binned.states[:, k].real.copy()
        cols[f"im_{k}"] = binned.states[:, k].imag.copy()
    return cols


# ---------------------------------------------------------------- routes


def _route_paths(exp: _Experiment, bundle: ResultBundle):
    tol = exp.tolerances["completeness"]
    binned = binned_measurement_amplitude(
        exp.hamiltonian, exp.decomp, exp.grid, exp.psi0, exp.spec)
    exact = exact_propagator(exp.hamiltonian, exp.grid.total_time) @ exp.psi0
    res = float(np.linalg.norm(binned.total() - exact))
    bundle.tables["bins"] = _bins_table(binned)
    bundle.residuals["path_completeness"] = _residual(res, tol)
    return binned


def _route_lambda(exp: _Experiment, bundle: ResultBundle):
    tols = exp.tolerances
    if exp.system_kind == "particle1d":
        field = particle1d.coordinate_amplitude_field(
            exp.psi_lattice, exp.potential, exp.grid, exp.functional, exp.lgrids[0])
        free = particle1d.split_step_evolve(
            exp.psi_lattice, exp.potential, exp.grid, 0.0, exp.functional)
        res = marginal_residual(field, free.values)
        bundle.tables["field"] = _field_table(field)
        bundle.residuals["sum_rule"] = _residual(res, tols["sum_rule"])
        # periodic domain must stay empty at its edges over the run
        flux = particle1d.boundary_mass(free)
        bundle.residuals["boundary_flux"] = _residual(flux, tols["boundary_flux"])
        return
    field = amplitude_field(
        exp.hamiltonian, exp.decomp, exp.grid, exp.betas, exp.lgrids, exp.psi0)
    undisturbed = exact_propagator(exp.hamiltonian, exp.grid.total_time) @ exp.psi0
    res_m = marginal_residual(field, undisturbed)
    res_f = fourier_consistency_check(field, exp.hamiltonian, exp.decomp, exp.grid, exp.betas)
    bundle.tables["field"] = _field_table(field)
    bundle.residuals["marginal_completeness"] = _residual(res_m, tols["marginal"])
    bundle.residuals["fourier_consistency"] = _residual(res_f, tols["fourier_consistency"])
    kcfg = exp.kernels[0] if exp.kernels else None
    if kcfg is not None:
        kernel = _kernel(kcfg, tuple(exp.lgrids), "meters[0].kernel")
        coarse = coarse_grain(field, kernel)
        bundle.tables["coarse_field"] = _field_table(coarse)
        if kernel.normalizable:
            table = probabilities(coarse)
            g = coarse.grids[0]
            bundle.tables["probabilities"] = {"f": g.f.copy(), "W": table.weights.reshape(-1)}
            expected = kernel.squared_mass() * float(np.vdot(exp.psi0, exp.psi0).real)
            res_w = abs(table.total_mass() - expected)
            bundle.residuals["probability_mass"] = _residual(res_w, tols["probability_mass"])
    return field


def _route_mensky(exp: _Experiment, bundle: ResultBundle) -> None:
    tols = exp.tolerances
    mcfg = exp.cfg.get("mensky", {})
    sigma = _positive(mcfg.get("sigma", 1.0), "mensky.sigma")
    cfg = MenskyConfig(sigma)
    records = []
    rcfg = mcfg.get("records", {"kind": "constant_eigenvalues"})
    if isinstance(rcfg, dict):
        if _need(rcfg, "kind", "mensky.records") != "constant_eigenvalues":
            raise ConfigInvalid("mensky.records.kind", "unknown record set")
        for a in exp.decomp.eigenvalues:
            records.append(ReadoutRecord.constant(exp.grid, float(a)))
    else:
        for i, row in enumerate(rcfg):
            records.append(ReadoutRecord(exp.grid, [
                _number(v, f"mensky.records[{i}]") for v in row]))
    if not records:
        raise ConfigInvalid("mensky.records", "need at least one record")
    norm2, dev = [], 0.0
    for rec in records:
        a = record_evolve(exp.hamiltonian, exp.decomp, exp.grid, rec, cfg, exp.psi0)
        b = weak_meter_array(exp.hamiltonian, exp.decomp, exp.grid, sigma, exp.psi0, rec)
        norm2.append(float(np.vdot(a, a).real))
        dev = max(dev, float(np.linalg.norm(a - b)))
    cols = {f"phi_{j}": np.array([rec.phi[j] for rec in records])
            for j in range(exp.grid.steps)}
    cols["norm2"] = np.array(norm2)
    bundle.tables["records"] = cols
    bundle.residuals["mensky_agreement"] = _residual(dev, tols["mensky_agreement"])


def _route_transform(exp: _Experiment, bundle: ResultBundle) -> None:
    tols = exp.tolerances
    tcfg = _need(exp.cfg, "transform", "<root>")
    dim = exp.hamiltonian.shape[0]
    B = exp._observable_matrix(
        _need(tcfg, "observable_b", "transform"), dim, "transform.observable_b")
    decB = spectral_decompose(B)
    lg = exp.lgrids[0]
    beta = exp.betas[0]
    fieldA = amplitude_field(exp.hamiltonian, exp.decomp, exp.grid, beta, lg, exp.psi0)
    fieldB = amplitude_field(exp.hamiltonian, decB, exp.grid, beta, lg, exp.psi0)
    kerAB = finite_time_kernel(exp.hamiltonian, exp.decomp, B, exp.grid, beta, beta, lg)
    kerBA = finite_time_kernel(exp.hamiltonian, B, exp.decomp, exp.grid, beta, beta, lg)
    viaK = apply_kernel(kerAB, fieldA)
    back = apply_kernel(kerBA, viaK)
    res_field = float(np.abs(viaK.states - fieldB.states).max())
    res_round = float(np.abs(back.states - fieldA.states).max())
    res_unit = kerAB.unitarity_residual()
    bvals = von_neumann_basis_change(exp.psi0, exp.decomp, decB)
    res_basis = abs(float(np.sum(np.abs(bvals) ** 2) - np.sum(
        np.abs(exp.decomp.to_eigenbasis(exp.psi0)) ** 2)))
    bundle.tables["field_b"] = _field_table(viaK)
    for name, value, key in [
        ("transform_field", res_field, "transform_field"),
        ("kernel_roundtrip", res_round, "kernel_roundtrip"),
        ("kernel_unitarity", res_unit, "kernel_unitarity"),
        ("basis_change_norm", res_basis, "basis_change"),
    ]:
        bundle.residuals[name] = _residual(value, tols[key])


def _route_crosscheck(exp: _Experiment, bundle: ResultBundle) -> None:
    tols = exp.tolerances
    binned = _route_paths(exp, bundle)
    field = _route_lambda(exp, bundle)
    res = binned_field_residual(field, binned)
    bundle.residuals["paths_vs_lambda"] = _residual(res, tols["crosscheck"])
    mcfg = exp.cfg.get("mensky")
    if mcfg and len(exp.betas) == 1 and exp.betas[0].kind != "impulse":
        sigma = _positive(_need(mcfg, "sigma", "mensky"), "mensky.sigma")
        res_w = weak_limit_check(
            exp.hamiltonian, exp.decomp, exp.grid, exp.betas[0],
            [sigma], exp.psi0, exp.lgrids[0])[0]
        lam_max = float(np.abs(exp.lgrids[0].lam).max())
        from .timegrid import square_integral
        bound = 1.1 * lam_max**2 * sigma**2 * square_integral(exp.betas[0], exp.grid) / 4
        bundle.residuals["weak_limit_bound"] = _residual(res_w, bound)


def run(cfg: dict) -> ResultBundle:
    """Execute one experiment; raises ConfigInvalid on bad configs."""
    t0 = time.perf_counter()
    exp = _Experiment(cfg)
    bundle = ResultBundle(
        metadata={
            "config": cfg,
            "package_version": __version__,
            "numpy_version": np.__version__,
            "schema_version": SCHEMA_VERSION,
        },
        tables={},
        residuals={},
    )
    route = {
        "paths": _route_paths,
        "lambda": _route_lambda,
        "mensky": _route_mensky,
        "transform": _route_transform,
        "crosscheck": _route_crosscheck,
    }[exp.route]
    route(exp, bundle)
    bundle.timings["total_seconds"] = time.perf_counter() - t0
    return bundle


# ---------------------------------------------------------------- output


def _fmt(x) -> str:
    if isinstance(x, (np.floating, float)):
        return repr(float(x))
    return str(x)


def emit(bundle: ResultBundle, fmt: str, outdir: str) -> list:
    """Write tables + residual report; returns the written paths.

    CSV mode: one file per table (readout column first) plus
    residuals.json and metadata.json. JSON mode: a single result.json.
    Output is byte-stable for identical config and seed.
    """
    os.makedirs(outdir, exist_ok=True)
    written = []
    meta = dict(bundle.metadata)  # timings excluded: not reproducible
    if fmt == "json":
        doc = {
            "metadata": meta,
            "tables": {
                name: {col: [_fmt(v) for v in vals] for col, vals in table.items()}
                for name, table in bundle.tables.items()
            },
            "residuals": bundle.residuals,
        }
        path = os.path.join(outdir, "result.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return [path]
    if fmt != "csv":
        raise ConfigInvalid("output.format", f"unknown format {fmt!r}")
    for name, table in bundle.tables.items():
        path = os.path.join(outdir, f"{name}.csv")
        cols = list(table.keys())
        rows = len(next(iter(table.values()))) if table else 0
        # one write buffer for the whole table, sized from its shape alone
        # (a float takes at most 24 characters): the table goes out in one
        # write, and every table of a shape allocates the same block, so
        # peak memory does not depend on the values written
        size = min(CSV_BUFFER_MAX, CSV_CELL_BYTES * len(cols) * (rows + 1))
        with open(path, "w", encoding="utf-8", buffering=max(size, io.DEFAULT_BUFFER_SIZE)) as fh:
            fh.write(",".join(cols) + "\n")
            for r in range(rows):
                fh.write(",".join(_fmt(table[c][r]) for c in cols) + "\n")
        written.append(path)
    rpath = os.path.join(outdir, "residuals.json")
    with open(rpath, "w", encoding="utf-8") as fh:
        json.dump(bundle.residuals, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(rpath)
    mpath = os.path.join(outdir, "metadata.json")
    with open(mpath, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(mpath)
    return written


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pathmeter",
        description="Run a path-summation measurement experiment from a JSON config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute one experiment")
    runp.add_argument("config", help="JSON experiment description")
    runp.add_argument("--out", default="out", help="output directory")
    runp.add_argument("--format", choices=("csv", "json"), default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        bundle = run(cfg)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CapExceeded, NyquistViolation, GridTooSmall) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except PathMeterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_cfg = cfg.get("output", {})
    outdir = args.out if args.out != "out" or "dir" not in out_cfg else out_cfg["dir"]
    fmt = args.format or out_cfg.get("format", "csv")
    try:
        written = emit(bundle, fmt, outdir)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for name, rep in sorted(bundle.residuals.items()):
        status = "pass" if rep["pass"] else "FAIL"
        print(f"{name}: {rep['value']:.3e} (tol {rep['tol']:.1e}) {status}")
    print(f"wrote {len(written)} files to {outdir} "
          f"[{bundle.timings.get('total_seconds', 0):.2f}s]", file=sys.stderr)
    return EXIT_PASS if bundle.passed() else EXIT_RESIDUAL


if __name__ == "__main__":
    sys.exit(main())
