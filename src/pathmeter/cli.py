"""Config-driven experiment runner.

Reads a JSON experiment description, dispatches to the compute modules,
and writes plot-ready CSV/JSON tables plus a residual report. One
experiment per invocation; outputs are byte-stable for a fixed config
and seed (timings go to stderr, never into the output files).

Every float in the output is written as its repr, the shortest text that
reads back as the same float. _floattext computes that text for whole
arrays with numpy, in this process, and hands the few cells whose digits
it cannot prove to repr itself, so the bytes are those of repr.

Exit codes: 0 all residuals pass, 1 residual failure, 2 configuration or
I/O error, 3 resource/grid cap (path cap, Nyquist, grid coverage).
"""

from __future__ import annotations

import argparse
import json
import math
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
    LengthMismatch,
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
from .mensky import MenskyConfig, ReadoutRecord, record_states, weak_limit_check, weak_meter_array
from .pathsum import binned_measurement_amplitude
from .timegrid import PathFunctionalSpec, SwitchingFunction, TimeGrid, square_integral
from .transforms import apply_kernel, finite_time_kernel, von_neumann_basis_change
from . import _floattext, particle1d

SCHEMA_VERSION = 1
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
    format: str = "csv"  # the config's output section
    outdir: str = "out"

    def passed(self) -> bool:
        return all(r["pass"] for r in self.residuals.values())


def _residual(value, tol) -> dict:
    value = float(value)
    tol = float(tol)
    return {"value": value, "tol": tol, "pass": bool(value <= tol)}


# ---------------------------------------------------------------- config


_REQUIRED = object()


def _real(value, path: str) -> float:
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):  # not a number, or an int past float range
        pass
    raise ConfigInvalid(path, f"expected a finite number, got {value!r}")


def _complex(value, path: str) -> complex:
    re, im = value if isinstance(value, list) and len(value) == 2 else (value, 0.0)
    return complex(_real(re, path), _real(im, path))


class _Node:
    """One JSON object of the config plus its field path.

    Every read checks the type, rejects non-finite numbers and raises
    ConfigInvalid naming the full path of the field.
    """

    def __init__(self, value, path: str = ""):
        if not isinstance(value, dict):
            raise ConfigInvalid(path or "<root>", f"expected an object, got {value!r}")
        self.value = value
        self.path = path

    def _at(self, key) -> str:
        return f"{self.path}.{key}" if self.path else key

    def _get(self, key: str, default=_REQUIRED):
        if key not in self.value and default is _REQUIRED:
            raise ConfigInvalid(self._at(key), "missing required field")
        return self.value.get(key, default)

    def node(self, key: str, default=_REQUIRED) -> "_Node":
        return _Node(self._get(key, default), self._at(key))

    def nodes(self, key: str) -> list:
        items = self._get(key)
        if not isinstance(items, list) or not items:
            raise ConfigInvalid(self._at(key), f"expected a non-empty list, got {items!r}")
        return [_Node(v, f"{self._at(key)}[{i}]") for i, v in enumerate(items)]

    def string(self, key: str, default=_REQUIRED, choices=()) -> str:
        value = self._get(key, default)
        if not isinstance(value, str) or (choices and value not in choices):
            expected = f"one of {choices}" if choices else "a string"
            raise ConfigInvalid(self._at(key), f"expected {expected}, got {value!r}")
        return value

    def kind(self, *choices) -> str:
        return self.string("kind", choices=choices)

    def flag(self, key: str, default: bool) -> bool:
        value = self._get(key, default)
        if not isinstance(value, bool):
            raise ConfigInvalid(self._at(key), f"expected true or false, got {value!r}")
        return value

    def number(self, key: str, default=_REQUIRED, positive: bool = False) -> float:
        value = _real(self._get(key, default), self._at(key))
        if positive and not value > 0:
            raise ConfigInvalid(self._at(key), f"expected a finite number > 0, got {value!r}")
        return value

    def integer(self, key: str, default=_REQUIRED, minimum: int = 1,
                power_of_two: bool = False) -> int:
        value = self._get(key, default)
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if (not isinstance(value, int) or isinstance(value, bool) or value < minimum
                or (power_of_two and value & (value - 1))):
            kind = "a power of two" if power_of_two else "an integer"
            raise ConfigInvalid(self._at(key), f"expected {kind} >= {minimum}, got {value!r}")
        return value

    def numbers(self, key: str, shape: tuple, entry=_real) -> np.ndarray:
        """Nested lists of `shape`, each entry read by `entry`; a None in
        `shape` stands for the length of the outermost list."""
        def walk(value, dims, path):
            if not dims:
                return entry(value, path)
            if not isinstance(value, list) or not value or len(value) != dims[0]:
                raise ConfigInvalid(path, f"expected {dims[0]} entries, got {value!r}")
            return [walk(v, dims[1:], f"{path}[{i}]") for i, v in enumerate(value)]

        value = self._get(key)
        n = len(value) if isinstance(value, list) and value else "a non-empty list of"
        return np.array(walk(value, tuple(n if d is None else d for d in shape), self._at(key)))

    def complex_array(self, key: str, shape: tuple) -> np.ndarray:
        """As `numbers`, with each entry a number or an [re, im] pair."""
        return self.numbers(key, shape, _complex)

    def build(self, ctor, *args):
        """ctor(*args); a ValueError or ArithmeticError names this node."""
        try:
            return ctor(*args)
        except (ValueError, ArithmeticError) as exc:
            raise ConfigInvalid(self.path, f"{exc} ({type(exc).__name__})") from None


_KERNELS = {
    "gaussian": ("width", CoarseGrainKernel.gaussian),
    "shift": ("offset", CoarseGrainKernel.shift),
    "quadratic_phase": ("curvature", CoarseGrainKernel.quadratic_phase),
}


def load_config(path: str):
    """The parsed JSON document; `run` checks its fields."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigInvalid("<file>", f"cannot read config: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
        raise ConfigInvalid("<file>", f"not valid JSON: {exc}") from None


class _Experiment:
    """Every config field, read and checked before any route runs."""

    def __init__(self, cfg: dict):
        root = _Node(cfg)
        version = cfg.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigInvalid("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
        self.route = root.string("route", choices=ROUTES)
        self.seed = root.integer("seed", 0, minimum=0)
        t = root.node("time")
        self.grid = t.build(TimeGrid, t.number("total", positive=True), t.integer("slices"))
        tols = root.node("tolerances", {})
        unknown = sorted(set(tols.value) - set(DEFAULT_TOLERANCES))
        if unknown:
            raise ConfigInvalid(f"tolerances.{unknown[0]}", "unknown tolerance name")
        self.tolerances = {**DEFAULT_TOLERANCES, **{k: tols.number(k) for k in tols.value}}
        out = root.node("output", {})
        self.format = out.string("format", "csv", choices=("csv", "json"))
        self.outdir = out.string("dir", "out")

        system = root.node("system")
        self.system_kind = system.kind("qubit", "nlevel", "random", "particle1d")
        if self.system_kind == "particle1d":
            self._read_particle(root, system)
        else:
            self._read_finite(root, system)

    def _switching(self, beta: _Node) -> SwitchingFunction:
        kind = beta.kind("constant", "impulse", "sampled")
        if kind == "constant":
            return SwitchingFunction.constant(beta.number("value"))
        if kind == "impulse":
            t0 = beta.number("t0")
            if not 0.0 <= t0 <= self.grid.total_time:
                raise ConfigInvalid(beta._at("t0"), f"outside [0, {self.grid.total_time}]")
            return SwitchingFunction.impulse(t0)
        return SwitchingFunction.sampled(beta.numbers("values", (self.grid.steps,)))

    def _lambda_grid(self, g: _Node, beta: SwitchingFunction) -> LambdaGrid:
        L = g.integer("points", minimum=2, power_of_two=True)
        if self.system_kind != "particle1d" and g.flag("aligned", False):
            return g.build(aligned_grid, beta, self.grid, self.decomp, L)
        return g.build(LambdaGrid.from_df, L, g.number("df", positive=True))

    # finite-dimensional systems -----------------------------------
    def _read_finite(self, root: _Node, system: _Node) -> None:
        kind = self.system_kind
        if kind == "qubit":
            e1 = system.number("epsilon1", 0.0)
            e2 = system.number("epsilon2", 1.0)
            v = system.number("coupling", 0.5)
            H = np.array([[e1, v], [v, e2]], dtype=complex)
        elif kind == "nlevel":
            H = system.complex_array("hamiltonian", (None, None))
        else:
            dim = system.integer("dim", minimum=2)
            rng = np.random.default_rng(self.seed)
            M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            H = (M + M.conj().T) / 2
        self.hamiltonian = require_hermitian(H, "system.hamiltonian")
        dim = H.shape[0]
        default_obs = _REQUIRED if kind == "nlevel" else {"kind": "coordinates"}
        self.decomp = self._decompose(root.node("observable", default_obs), dim)

        if root.value.get("initial_state", "uniform") == "uniform":
            self.psi0 = np.ones(dim, dtype=complex) / np.sqrt(dim)
        else:
            self.psi0 = root.complex_array("initial_state", (dim,))

        meters = root.nodes("meters")
        self.betas = [self._switching(m.node("beta")) for m in meters]
        self.lgrids = [self._lambda_grid(m.node("grid"), b) for m, b in zip(meters, self.betas)]
        self.spec = PathFunctionalSpec(self.grid, tuple(self.betas))

        mensky = root.node("mensky", {})
        self.sigma = None
        if self.route == "mensky":
            self.sigma = self._sigma(mensky, 1.0)
            self.records = self._records(mensky)
        elif (self.route == "crosscheck" and mensky.value and len(meters) == 1
              and self.betas[0].kind != "impulse"):  # the weak-limit bound
            self.sigma = self._sigma(mensky)
            beta = meters[0].node("beta")
            self.beta_square = beta.build(square_integral, self.betas[0], self.grid)
        if self.route == "transform":
            if len(meters) != 1:
                raise ConfigInvalid("meters", "transform runs use exactly one meter")
            b = root.node("transform").node("observable_b")
            self.decomp_b = self._decompose(b, dim)
        for i, m in enumerate(meters):  # one kernel acts on the lambda route's field
            if "kernel" in m.value and (i or self.route not in ("lambda", "crosscheck")):
                raise ConfigInvalid(m._at("kernel"), "a kernel goes on meters[0] of a lambda "
                                    "or crosscheck run, and acts on every meter")
        first = meters[0]
        self.kernel = self._kernel(first.node("kernel")) if "kernel" in first.value else None

    def _decompose(self, obs: _Node, dim: int):
        if obs.kind("coordinates", "matrix") == "coordinates":
            A = np.diag(np.arange(1, dim + 1, dtype=float)).astype(complex)
        else:
            A = require_hermitian(obs.complex_array("entries", (dim, dim)), obs.path)
        return spectral_decompose(A)

    def _kernel(self, k: _Node) -> CoarseGrainKernel:
        """One meter's kernel, over every meter's grid. A gaussian about df wide
        has its symbol cut off at the grid edge: refused when probability_mass
        would read its mass gap (Parseval) above its sums' rounding and the tolerance."""
        name, ctor = _KERNELS[k.kind(*_KERNELS)]
        value = k.number(name, positive=name == "width")
        if name == "width":
            lam_mass = f_mass = 1.0
            for g in self.lgrids:  # both masses are products over the meter axes
                axis = CoarseGrainKernel.gaussian(g, value)
                lam_mass *= np.sum(np.abs(axis.symbol()) ** 2) * g.dlam / (2 * np.pi)
                f_mass *= axis.squared_mass()
            gap = abs(lam_mass - f_mass) * float(np.vdot(self.psi0, self.psi0).real)
            rounding = f_mass * np.finfo(float).eps * np.prod([g.n_points for g in self.lgrids])
            if abs(lam_mass - f_mass) > rounding and gap > self.tolerances["probability_mass"]:
                raise ConfigInvalid(k._at(name), f"{value!r} is too narrow for the grid: "
                                    f"probability_mass would read {gap:.2e}")
        return k.build(ctor, tuple(self.lgrids), (value,) * len(self.lgrids))

    def _sigma(self, mensky: _Node, default=_REQUIRED) -> float:
        """The tube width; the damping rate eps / sigma^2 and the weak-limit
        bound need sigma^2 and eps / sigma^2 finite and > 0."""
        sigma = mensky.number("sigma", default, positive=True)
        s2 = sigma * sigma
        if not (0 < s2 < math.inf and 0 < self.grid.eps / s2 < math.inf):
            raise ConfigInvalid(mensky._at("sigma"), f"{sigma!r} puts sigma^2 or "
                                f"eps / sigma^2 (eps = {self.grid.eps!r}) out of float range")
        return sigma

    def _records(self, mensky: _Node) -> list:
        if isinstance(mensky.value.get("records"), list):
            rows = mensky.numbers("records", (None, self.grid.steps))
            return [ReadoutRecord(self.grid, row) for row in rows]
        mensky.node("records", {"kind": "constant_eigenvalues"}).kind("constant_eigenvalues")
        return [ReadoutRecord.constant(self.grid, float(a)) for a in self.decomp.eigenvalues]

    # particle systems ----------------------------------------------
    def _read_particle(self, root: _Node, system: _Node) -> None:
        if self.route != "lambda":
            raise ConfigInvalid("route", "particle1d systems support the lambda route only")
        n_x = system.integer("n_x", minimum=2, power_of_two=True)
        packet = system.node("packet")
        self.psi_lattice = system.build(
            particle1d.LatticeWavefunction.gaussian,
            system.number("x_min"), system.number("dx", positive=True), n_x,
            packet.number("center"), packet.number("width", positive=True),
            packet.number("momentum", 0.0), system.number("mass", 1.0, positive=True),
        )
        pot = system.node("potential", {"kind": "zero"})
        kind = pot.kind("zero", "barrier", "samples")
        x = self.psi_lattice.x
        if kind == "zero":
            self.potential = np.zeros(n_x)
        elif kind == "barrier":
            lo, hi, h = pot.number("lo"), pot.number("hi"), pot.number("height")
            self.potential = np.where((x >= lo) & (x <= hi), h, 0.0)
        else:
            self.potential = pot.numbers("values", (n_x,))

        meters = root.nodes("meters")
        if len(meters) != 1:
            raise ConfigInvalid("meters", "particle1d runs use exactly one meter")
        m = meters[0]
        if "kernel" in m.value:
            raise ConfigInvalid(m._at("kernel"), "particle1d runs take no kernel")
        beta = self._switching(m.node("beta"))
        f = m.node("functional")
        if f.kind("region", "position") == "region":
            self.functional = f.build(particle1d.CoordinateFunctional.region_indicator,
                                      self.psi_lattice, f.number("lo"), f.number("hi"), beta)
        else:
            self.functional = f.build(particle1d.CoordinateFunctional.position,
                                      self.psi_lattice, beta)
        self.lgrids = [self._lambda_grid(m.node("grid"), beta)]


# ---------------------------------------------------------------- tables


def _readout_columns(values) -> dict:
    """Readout columns from one 1-D array per meter: `f` for one meter,
    `f_0` ... `f_{M-1}` for more."""
    if len(values) == 1:
        return {"f": values[0]}
    return {f"f_{i}": v for i, v in enumerate(values)}


def _grid_columns(grids) -> dict:
    """Readout columns over the product grid in C order, one row per node."""
    mesh = np.meshgrid(*[g.f for g in grids], indexing="ij")
    return _readout_columns([m.reshape(-1) for m in mesh])


def _field_table(field) -> dict:
    cols = _grid_columns(field.grids)
    states = field.states
    for k in range(states.shape[-1]):
        cols[f"re_{k}"] = states[..., k].real.reshape(-1)
        cols[f"im_{k}"] = states[..., k].imag.reshape(-1)
    return cols


def _bins_table(binned) -> dict:
    cols = _readout_columns([binned.f_values[:, i].copy()
                             for i in range(binned.f_values.shape[1])])
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
    kernel = exp.kernel
    if kernel is not None:
        coarse = coarse_grain(field, kernel)
        bundle.tables["coarse_field"] = _field_table(coarse)
        if kernel.normalizable:
            table = probabilities(coarse)
            bundle.tables["probabilities"] = {**_grid_columns(coarse.grids),
                                              "W": table.weights.reshape(-1)}
            expected = kernel.squared_mass() * float(np.vdot(exp.psi0, exp.psi0).real)
            res_w = abs(table.total_mass() - expected)
            bundle.residuals["probability_mass"] = _residual(res_w, tols["probability_mass"])
    return field


def _route_mensky(exp: _Experiment, bundle: ResultBundle) -> None:
    tols = exp.tolerances
    states = record_states(exp.hamiltonian, exp.decomp, exp.grid, exp.records,
                           MenskyConfig(exp.sigma), exp.psi0)
    norm2, dev = [], 0.0
    for rec, a in zip(exp.records, states):
        b = weak_meter_array(exp.hamiltonian, exp.decomp, exp.grid, exp.sigma, exp.psi0, rec)
        norm2.append(float(np.vdot(a, a).real))
        dev = max(dev, float(np.linalg.norm(a - b)))
    cols = {f"phi_{j}": np.array([rec.phi[j] for rec in exp.records])
            for j in range(exp.grid.steps)}
    cols["norm2"] = np.array(norm2)
    bundle.tables["records"] = cols
    bundle.residuals["mensky_agreement"] = _residual(dev, tols["mensky_agreement"])


def _route_transform(exp: _Experiment, bundle: ResultBundle) -> None:
    tols = exp.tolerances
    decB = exp.decomp_b
    lg = exp.lgrids[0]
    beta = exp.betas[0]
    fieldA = amplitude_field(exp.hamiltonian, exp.decomp, exp.grid, beta, lg, exp.psi0)
    fieldB = amplitude_field(exp.hamiltonian, decB, exp.grid, beta, lg, exp.psi0)
    kerAB = finite_time_kernel(exp.hamiltonian, exp.decomp, decB, exp.grid, beta, beta, lg)
    viaK = apply_kernel(kerAB, fieldA)
    back = apply_kernel(kerAB.adjoint(), viaK)
    res_field = float(np.abs(viaK.states - fieldB.states).max())
    res_round = float(np.abs(back.states - fieldA.states).max())
    res_unit = kerAB.unitarity_residual()
    bvals = von_neumann_basis_change(exp.psi0, exp.decomp, decB)
    res_basis = abs(float(np.sum(np.abs(bvals) ** 2) - np.sum(
        np.abs(exp.decomp.to_eigenbasis(exp.psi0)) ** 2)))
    bundle.tables["field_b"] = _field_table(viaK)
    res = bundle.residuals
    res["transform_field"] = _residual(res_field, tols["transform_field"])
    res["kernel_roundtrip"] = _residual(res_round, tols["kernel_roundtrip"])
    res["kernel_unitarity"] = _residual(res_unit, tols["kernel_unitarity"])
    res["basis_change_norm"] = _residual(res_basis, tols["basis_change"])


def _route_crosscheck(exp: _Experiment, bundle: ResultBundle) -> None:
    tols = exp.tolerances
    binned = _route_paths(exp, bundle)
    field = _route_lambda(exp, bundle)
    res = binned_field_residual(field, binned)
    bundle.residuals["paths_vs_lambda"] = _residual(res, tols["crosscheck"])
    if exp.sigma is not None:
        res_w = weak_limit_check(
            exp.hamiltonian, exp.decomp, exp.grid, exp.betas[0],
            [exp.sigma], exp.psi0, exp.lgrids[0])[0]
        lam_max = float(np.abs(exp.lgrids[0].lam).max())
        bound = 1.1 * lam_max**2 * exp.sigma**2 * exp.beta_square / 4
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
        format=exp.format,
        outdir=exp.outdir,
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


def _dump_json(outdir: str, name: str, doc) -> str:
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_csv(path: str, table: dict) -> None:
    """Write one table as CSV: a header of its column names, then one row
    per index, each float as its repr."""
    with open(path, "wb") as fh:
        fh.write((",".join(table) + "\n").encode())
        _floattext.write_rows(fh.write, list(table.values()))


def emit(bundle: ResultBundle, fmt: str, outdir: str) -> list:
    """Write tables + residual report; returns the written paths.

    CSV mode: one file per table (readout column first) plus
    residuals.json and metadata.json. JSON mode: a single result.json.
    Output is byte-stable for identical config and seed. A table whose
    columns differ in length raises LengthMismatch before any file is
    written.
    """
    for name, table in bundle.tables.items():
        lengths = sorted({len(col) for col in table.values()})
        if len(lengths) > 1:
            raise LengthMismatch(f"table {name!r} has columns of lengths {lengths}")
    os.makedirs(outdir, exist_ok=True)
    written = []
    meta = dict(bundle.metadata)  # timings excluded: not reproducible
    if fmt == "json":
        doc = {
            "metadata": meta,
            "tables": {
                name: {col: _floattext.texts(vals) for col, vals in table.items()}
                for name, table in bundle.tables.items()
            },
            "residuals": bundle.residuals,
        }
        return [_dump_json(outdir, "result.json", doc)]
    if fmt != "csv":
        raise ConfigInvalid("output.format", f"unknown format {fmt!r}")
    for name, table in bundle.tables.items():
        path = os.path.join(outdir, f"{name}.csv")
        _write_csv(path, table)
        written.append(path)
    written.append(_dump_json(outdir, "residuals.json", bundle.residuals))
    written.append(_dump_json(outdir, "metadata.json", meta))
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
    runp.add_argument("--out", default=None,
                      help="output directory (default: the config's output.dir, else out)")
    runp.add_argument("--format", choices=("csv", "json"), default=None)
    args = parser.parse_args(argv)

    try:
        bundle = run(load_config(args.config))
    except (CapExceeded, NyquistViolation, GridTooSmall) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except PathMeterError as exc:  # ConfigInvalid and every other bad-input error
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    outdir = args.out or bundle.outdir
    try:
        written = emit(bundle, args.format or bundle.format, outdir)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LengthMismatch as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for name, rep in sorted(bundle.residuals.items()):
        status = "pass" if rep["pass"] else "FAIL"
        print(f"{name}: {rep['value']:.3e} (tol {rep['tol']:.1e}) {status}")
    print(f"wrote {len(written)} files to {outdir} "
          f"[{bundle.timings.get('total_seconds', 0):.2f}s]", file=sys.stderr)
    return EXIT_PASS if bundle.passed() else EXIT_RESIDUAL


if __name__ == "__main__":
    sys.exit(main())
