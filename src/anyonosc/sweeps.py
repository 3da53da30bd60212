"""Configuration, parameter sweeps and the figure-data generators."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dimer import (CONJUGATION_CONVENTIONS, DEFAULT_CONJUGATION,
                    DEFAULT_FREQUENCY_CONVENTION, FREQUENCY_CONVENTIONS, _modulus, ep_flag,
                    find_exceptional_point, match_branches, weff_eigenvalues, weff_entries)
from .fock import JUMP_BASES
from .output import SweepResult, grid_result
from .params import AnyonParams, ParamArrays, ParameterError
from .rates import gamma_full_single, gamma_stat
from .spectra import (DEFAULT_JUMP_BASIS, PATHWAY_QUANTA, GridSpec, SpectrumGrid,
                      diagonal_slice, rephasing_response)


class ConfigError(ValueError):
    """Raised on malformed run configuration (unknown keys are hard errors)."""


PARAM_FIELDS = ("theta", "omega", "coupling_j", "gamma", "beta", "xi")


@dataclass(frozen=True)
class SweepAxis:
    """Inclusive range of ``count`` >= 2 points between finite endpoints
    a finite span apart."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ConfigError(f"sweep axis {self.name!r} needs count >= 2, got {self.count}")
        # a non-finite endpoint makes the span non-finite too
        if not math.isfinite(float(self.stop) - float(self.start)):
            raise ConfigError(f"sweep axis {self.name!r} needs finite endpoints and span, "
                              f"got {self.start}:{self.stop}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


# Preset defaults, read by the CLI's too: every theta sweep's axis, fig2's xi, fig3's panels
THETA_AXIS = SweepAxis("theta", 0.0, math.pi, 201)
FIG2_XI = (0.0, 0.25, 0.5, 0.75, 1.0)
FIG3_THETAS = tuple(np.linspace(0.0, math.pi, 9).tolist())
FIG3_XI = (0.0, 1.0)


@dataclass(frozen=True)
class Conventions:
    frequency: str = DEFAULT_FREQUENCY_CONVENTION
    conjugation: str = DEFAULT_CONJUGATION
    jump_basis: str = DEFAULT_JUMP_BASIS
    stat_dephasing: bool = False

    def __post_init__(self):
        if self.frequency not in FREQUENCY_CONVENTIONS:
            raise ConfigError(f"unknown frequency convention {self.frequency!r}")
        if self.conjugation not in CONJUGATION_CONVENTIONS:
            raise ConfigError(f"unknown conjugation convention {self.conjugation!r}")
        if self.jump_basis not in JUMP_BASES:
            raise ConfigError(f"unknown jump basis {self.jump_basis!r}")

    def as_dict(self) -> dict:
        return {"frequency": self.frequency, "conjugation": self.conjugation,
                "jump_basis": self.jump_basis, "stat_dephasing": bool(self.stat_dephasing)}


@dataclass(frozen=True)
class RunConfig:
    params: AnyonParams = field(default_factory=lambda: AnyonParams(theta=0.0))
    sweep: tuple = ()
    conventions: Conventions = field(default_factory=Conventions)
    output_path: str | None = None
    threads: int = 1
    cutoff: int = 2
    grid: GridSpec = field(default_factory=GridSpec)
    t2: float = 0.0
    theta_list: tuple = ()
    xi_list: tuple = ()

    def __post_init__(self):
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.cutoff < 1:
            raise ConfigError(f"cutoff must be >= 1, got {self.cutoff}")
        twice = [ax.name for ax in self.sweep if [a.name for a in self.sweep].count(ax.name) > 1]
        if twice:
            raise ConfigError(f"sweep axes name parameter {twice[0]!r} more than once")

    def as_dict(self) -> dict:
        """JSON echo with the types config_from_dict reads back (theta=0 and
        theta=0.0 echo, and so hash, alike)."""
        return {
            "params": {k: float(getattr(self.params, k)) for k in PARAM_FIELDS},
            "sweep": [{"name": ax.name, "start": float(ax.start), "stop": float(ax.stop),
                       "count": int(ax.count)} for ax in self.sweep],
            "conventions": self.conventions.as_dict(),
            "output": {"path": self.output_path},
            "compute": {"threads": int(self.threads), "cutoff": int(self.cutoff)},
            "grid": {"count": int(self.grid.count), "lo": float(self.grid.lo),
                     "hi": float(self.grid.hi)},
            "t2": float(self.t2),
            "theta_list": [float(x) for x in self.theta_list],
            "xi_list": [float(x) for x in self.xi_list],
        }

    def sha256(self) -> str:
        canon = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


# The keys config_from_dict reads, with values of their JSON types (one item per
# list), and per echoed type the JSON values accepted in its place.
_SCHEMA = RunConfig(sweep=(THETA_AXIS,), theta_list=(0.0,), xi_list=(0.0,)).as_dict()
_JSON_TYPES = {dict: (dict, "a JSON object"), list: (list, "a JSON list"),
               bool: (bool, "a boolean"), int: (int, "an integer"),
               float: ((int, float), "a number"), str: (str, "a string"),
               type(None): ((str, type(None)), "a string or null")}


def _check_types(value, like, where: str):
    """ConfigError naming ``where`` unless ``value`` is of the JSON type of
    ``like``, its part of ``_SCHEMA`` (a boolean is never a number), with an
    object's keys among ``like``'s and a list's items each like ``like[0]``."""
    kinds, name = _JSON_TYPES[type(like)]
    if not isinstance(value, kinds) or isinstance(value, bool) != isinstance(like, bool):
        raise ConfigError(f"{where} must be {name}, got {json.dumps(value)}")
    if isinstance(like, float) and isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            raise ConfigError(f"{where} must be a number within the float range, "
                              f"got an integer of {len(str(abs(value)))} digits") from None
    if isinstance(like, dict):
        unknown = set(value) - set(like)
        if unknown:
            raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
        for key, item in value.items():
            _check_types(item, like[key], f"{where}.{key}")
    elif isinstance(like, list):
        for i, item in enumerate(value):
            _check_types(item, like[0], f"{where}[{i}]")


def config_from_dict(doc: dict) -> RunConfig:
    """Build a RunConfig from a JSON document over the RunConfig defaults; an
    unknown key, or a value of another JSON type than the echo's, is an error."""
    _check_types(doc, _SCHEMA, "config")
    echo = RunConfig().as_dict()
    for key, value in doc.items():
        echo[key] = dict(echo[key], **value) if isinstance(value, dict) else value
    try:
        params = AnyonParams(**{k: float(v) for k, v in echo["params"].items()})
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc

    axes = []
    for item in echo["sweep"]:
        for key in ("name", "start", "stop", "count"):
            if key not in item:
                raise ConfigError(f"sweep axis missing {key!r}")
        if item["name"] not in PARAM_FIELDS:
            raise ConfigError(f"sweep axis references unknown parameter {item['name']!r}")
        axes.append(SweepAxis(**item))

    try:
        grid = GridSpec(**echo["grid"])
    except ValueError as exc:
        raise ConfigError(f"config.grid: {exc}") from exc

    return RunConfig(params=params, sweep=tuple(axes),
                     conventions=Conventions(**echo["conventions"]),
                     output_path=echo["output"]["path"], threads=echo["compute"]["threads"],
                     cutoff=echo["compute"]["cutoff"], grid=grid, t2=float(echo["t2"]),
                     theta_list=tuple(float(x) for x in echo["theta_list"]),
                     xi_list=tuple(float(x) for x in echo["xi_list"]))


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(doc)


def parse_range(text: str) -> tuple:
    """The command-line range grammar lo:hi, as (lo, hi); a point count
    comes from --grid, never from the range."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"--range takes lo:hi, got {text!r}")
    return float(parts[0]), float(parts[1])


def _theta_axis(config: RunConfig) -> SweepAxis:
    return next((ax for ax in config.sweep if ax.name == "theta"), THETA_AXIS)


def run_fig1(config: RunConfig) -> SweepResult:
    """Single-oscillator rates against the statistical angle.

    Columns: theta, Gamma_stat, Re Gamma_full, Im Gamma_full at the configured
    beta and gamma.
    """
    theta = _theta_axis(config).values()
    pts = ParamArrays.over(config.params, theta=theta)
    full = gamma_full_single(pts)
    return SweepResult(
        columns=("theta", "gamma_stat", "re_gamma_full", "im_gamma_full"),
        units=("rad", "omega", "omega", "omega"),
        arrays=(theta, gamma_stat(pts.theta, pts.z, pts.gamma), full.real, full.imag),
        metadata={"generator": "fig1"},
    )


def _branches(config: RunConfig, thetas, xis) -> tuple:
    """W_eff eigenvalue pairs on the (xi, theta) grid, labelled along theta.

    The arrays theta (a row), xi (a column), Re/Im of both branch-continued
    eigenvalues, gap and the EP flag (``dimer.ep_flag``), element [k, i] at
    (thetas[i], xis[k]): fig2's columns, and the overlay's source."""
    theta, xi = np.asarray(thetas, float)[None, :], np.asarray(xis, float)[:, None]
    conv = config.conventions
    a, b, c, d = weff_entries(ParamArrays.over(config.params, theta=theta, xi=xi),
                              conv.frequency, conv.conjugation, conv.stat_dephasing)
    lp, lm = match_branches(*weff_eigenvalues(a, b, c, d))
    gap = _modulus(lp - lm)
    flag = ep_flag(gap, b, c, config.params.gamma)
    return theta, xi, lp.real, lm.real, lp.imag, lm.imag, gap, flag


def run_fig2(config: RunConfig) -> SweepResult:
    """Dimer mode relaxation rates over (theta, xi) with branch continuity.

    Columns: theta, xi, Re/Im of both branch-continued eigenvalues, gap and
    the EP flag (``dimer.ep_flag``). Rows run over theta within each xi, the
    branches continued along theta.
    """
    return SweepResult(
        columns=("theta", "xi", "re_lambda_plus", "re_lambda_minus",
                 "im_lambda_plus", "im_lambda_minus", "gap", "ep_flag"),
        units=("rad", "1", "omega", "omega", "omega", "omega", "omega", "bool"),
        arrays=_branches(config, _theta_axis(config).values(), config.xi_list or FIG2_XI),
        metadata={"generator": "fig2"},
    )


def run_ep_locate(config: RunConfig) -> SweepResult:
    """``dimer.find_exceptional_point`` as one row, bracketed by the sweep axis if any."""
    bracket = next(((ax.start, ax.stop) for ax in config.sweep), None)
    conv = config.conventions
    ep = find_exceptional_point(config.params, bracket, conv.frequency, conv.conjugation,
                                conv.stat_dephasing)
    return SweepResult(columns=("theta_star", "gap", "ep_found", "threshold"),
                       units=("rad", "omega", "bool", "omega"),
                       rows=[(ep.theta, ep.gap, int(ep.found), ep.threshold)],
                       metadata={"generator": "ep-locate"})


def run_spectrum(config: RunConfig) -> SpectrumGrid:
    """The rephasing grid of ``config`` (params, t2, grid, conventions), for the
    spectrum command and every fig3 panel.

    The pathway holds at most PATHWAY_QUANTA quanta, so every cutoff from
    PATHWAY_QUANTA up gives the same grid; a smaller one is refused."""
    if config.cutoff < PATHWAY_QUANTA:
        raise ValueError("third-order spectra need the two-excitation manifold: "
                         f"cutoff >= {PATHWAY_QUANTA}")
    conv = config.conventions
    return rephasing_response(config.params, t2=config.t2, grid=config.grid,
                              jump_basis=conv.jump_basis, conjugation=conv.conjugation)


def _spectrum_grid(config: RunConfig) -> SweepResult:
    """``run_spectrum``'s grid as rows, holding the grid as its one panel."""
    return grid_result(run_spectrum(config), panel=(config.params.theta, config.params.xi))


def run_fig3(config: RunConfig) -> SweepResult:
    """Stacked diagonal slices of the rephasing spectra for each (theta, xi), read from
    each grid's factors (no n x n cells), on the (panel, detuning) grid; the result
    holds the panels' grids."""
    panels = [(float(theta), float(xi)) for xi in config.xi_list or FIG3_XI
              for theta in config.theta_list or FIG3_THETAS]
    grids = [run_spectrum(replace(config, params=config.params.with_(theta=theta, xi=xi)))
             for theta, xi in panels]
    theta, xi = np.array(panels).T[..., None]
    vals = np.stack([diagonal_slice(g)[1] for g in grids])
    # every panel's grid block, and so its detunings, is the same: the slices carry it once
    return SweepResult(
        columns=("theta", "xi", "detuning", "re", "im", "abs"),
        units=("rad", "1", "omega", "arb", "arb", "arb"),
        arrays=(theta, xi, grids[0].axis[None, :], vals.real, vals.imag, _modulus(vals)),
        metadata={"generator": "fig3-slices", "grid": grids[-1].metadata},
        grids=tuple((*panel, g) for panel, g in zip(panels, grids)),
    )


def _fig3_overlay(config: RunConfig) -> SweepResult:
    """fig3's bright-mode branches: fig2's rows on 201 angles over the panels' span (the
    one angle itself when there is one), as carrier detunings."""
    thetas, xis = config.theta_list or FIG3_THETAS, config.xi_list or FIG3_XI
    theta_grid = np.linspace(min(thetas), max(thetas), 201) if len(thetas) > 1 else thetas
    theta, xi, re_1, re_2, im_1, im_2 = _branches(config, theta_grid, xis)[:6]
    omega = config.params.omega
    return SweepResult(
        columns=("theta", "xi", "nu_branch_1", "nu_branch_2", "re_branch_1", "re_branch_2"),
        units=("rad", "1", "omega", "omega", "omega", "omega"),
        arrays=(theta, xi, -im_1 - omega, -im_2 - omega, re_1, re_2),
        metadata={"generator": "fig3-overlay"},
    )


def run_sweep(config: RunConfig) -> SweepResult:
    """Generic closed-form sweep over the configured axes.

    Rows are the cartesian product of the axes in order; per row the
    single-oscillator rates and the dimer eigenvalues are evaluated, each
    over the open grid's (``np.ix_``) axes it depends on. A config key the
    sweep does not read must keep its RunConfig default.
    """
    if not config.sweep:
        raise ConfigError("sweep config needs at least one axis")
    default = RunConfig()
    unread = [key for key, attr in (("t2", "t2"), ("grid", "grid"), ("theta_list", "theta_list"),
                                    ("xi_list", "xi_list"), ("compute.cutoff", "cutoff"))
              if getattr(config, attr) != getattr(default, attr)]
    if unread:
        raise ConfigError(f"sweep config sets keys a sweep does not read: {unread}")
    axes = np.ix_(*(ax.values() for ax in config.sweep))
    names = [ax.name for ax in config.sweep]
    pts = ParamArrays.over(config.params, **dict(zip(names, axes)))
    full = gamma_full_single(pts)
    conv = config.conventions
    lp, lm = weff_eigenvalues(*weff_entries(pts, conv.frequency, conv.conjugation,
                                            conv.stat_dephasing))
    arrays = (*axes, gamma_stat(pts.theta, pts.z, pts.gamma), full.real, full.imag,
              lp.real, lp.imag, lm.real, lm.imag, _modulus(lp - lm))
    cols = tuple(names) + ("gamma_stat", "re_gamma_full", "im_gamma_full",
                           "re_lambda_plus", "im_lambda_plus",
                           "re_lambda_minus", "im_lambda_minus", "gap")
    units = tuple("rad" if n == "theta" else "1" if n == "xi" else "omega" for n in names) + \
        ("omega",) * 8
    return SweepResult(columns=cols, units=units, arrays=arrays, metadata={"generator": "sweep"})


# Each sidecar's generator name -> the function that makes that CSV's result from the
# sidecar's config alone; the CLI computes every command through it.
GENERATORS = {"fig1": run_fig1, "fig2": run_fig2, "ep-locate": run_ep_locate, "sweep": run_sweep,
              "spectrum-grid": _spectrum_grid, "fig3-slices": run_fig3,
              "fig3-overlay": _fig3_overlay}
