"""Command-line interface: rate tables, effective-matrix sweeps, exceptional
point location, 2D spectra and the figure presets, with CSV/JSON/SVG output.

Diagnostics go to stderr; data goes to files (--out) or stdout. Exit codes:
0 success, 1 validation error, 2 compute error.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from collections import namedtuple
from dataclasses import replace

import numpy as np

from .dimer import CONJUGATION_CONVENTIONS, FREQUENCY_CONVENTIONS
from .fock import JUMP_BASES
from .output import _csv_blocks, sidecar_path, write_grid_svg, write_outputs
from .params import ParameterError
from .spectra import GridSpec
from .sweeps import (FIG2_XI, FIG3_THETAS, FIG3_XI, GENERATORS, THETA_AXIS, ConfigError,
                     Conventions, RunConfig, SweepAxis, fig3_panels, load_config, parse_range)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: fig3's --theta would read as --theta-list
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # a minus before a digit starts a value, never a flag: -1e-05, -.5,
        # and the ranges and lists -0.5:0.5 and -1,0,1
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):  # argparse defaults to exit code 2; we use 1
        # and one prefix: a subcommand's parser would name itself "anyonosc <command>"
        self.exit(1, f"anyonosc: error: {message}\n")


# flag -> (AnyonParams field, help); a command defines only the flags its
# output reads, and a flag it lacks keeps the RunConfig default
PARAM_FLAGS = {
    "theta": ("theta", "statistical angle [rad]"),
    "xi": ("xi", "bath correlation in [-1, 1]"),
    "beta": ("beta", "inverse temperature (beta*omega)"),
    "gamma": ("gamma", "bath coupling rate [omega]"),
    "coupling": ("coupling_j", "hopping J [omega]"),
    "omega": ("omega", "mode frequency (unit scale)"),
}
_DEFAULTS = RunConfig()


def _add_param_flags(p, *names):
    for name in names:
        field, text = PARAM_FLAGS[name]
        p.add_argument(f"--{name}", type=float, default=getattr(_DEFAULTS.params, field), help=text)


def _add_convention_flags(p):
    conv = _DEFAULTS.conventions
    p.add_argument("--convention", choices=FREQUENCY_CONVENTIONS, default=conv.frequency,
                   help="normal-mode frequency convention")
    p.add_argument("--conjugation", choices=CONJUGATION_CONVENTIONS, default=conv.conjugation,
                   help="channel-coefficient conjugation convention")
    p.add_argument("--jump-basis", choices=JUMP_BASES, default=conv.jump_basis,
                   help="Liouvillian jump-operator basis")
    p.add_argument("--stat-dephasing", choices=("on", "off"),
                   default="on" if conv.stat_dephasing else "off",
                   help="add the statistical dephasing rate to the diagonals")


def _add_output_flags(p, out_help="output CSV path (stdout when omitted)"):
    p.add_argument("--out", help=out_help)
    p.add_argument("--threads", type=int, default=_DEFAULTS.threads)


THETA_RANGE = f"{THETA_AXIS.start!r}:{THETA_AXIS.stop!r}"
GRID_RANGE = f"{_DEFAULTS.grid.lo!r}:{_DEFAULTS.grid.hi!r}"


@functools.cache  # parsing does not mutate the parser: build it once per process
def build_parser() -> _Parser:
    ap = _Parser(prog="anyonosc",
                 description="Anyonic-oscillator Lindblad rates, effective-matrix "
                             "analysis and rephasing 2D spectra")
    sub = ap.add_subparsers(dest="command", required=True)

    # theta is swept (or bracketed) by every command but spectrum, and the
    # single-oscillator rates read neither xi nor J
    p1 = sub.add_parser("single-rates", help="single-oscillator rates over theta")
    _add_param_flags(p1, "beta", "gamma", "omega")
    p1.add_argument("--range", default=THETA_RANGE, help="theta range lo:hi")
    p1.add_argument("--grid", type=int, default=THETA_AXIS.count, help="number of sweep points")
    _add_output_flags(p1)

    p2 = sub.add_parser("dimer-rates", help="effective-matrix eigenvalues over theta")
    _add_param_flags(p2, "xi", "beta", "gamma", "coupling", "omega")
    _add_convention_flags(p2)
    p2.add_argument("--range", default=THETA_RANGE, help="theta range lo:hi")
    p2.add_argument("--grid", type=int, default=THETA_AXIS.count)
    _add_output_flags(p2)

    p3 = sub.add_parser("ep-locate", help="locate the exceptional point in theta")
    _add_param_flags(p3, "xi", "beta", "gamma", "coupling", "omega")
    _add_convention_flags(p3)
    p3.add_argument("--range", default=None, help="theta bracket lo:hi (default 0:pi-0.01)")
    _add_output_flags(p3)

    p4 = sub.add_parser("spectrum", help="one rephasing 2D spectrum grid")
    _add_param_flags(p4, *PARAM_FLAGS)
    _add_convention_flags(p4)
    p4.add_argument("--cutoff", type=int, default=_DEFAULTS.cutoff)
    p4.add_argument("--t2", type=float, default=_DEFAULTS.t2, help="waiting time")
    p4.add_argument("--grid", type=int, default=_DEFAULTS.grid.count, help="points per axis")
    p4.add_argument("--range", default=GRID_RANGE, help="detuning range lo:hi")
    p4.add_argument("--svg", help="optional SVG heatmap path")
    _add_output_flags(p4)

    # xi comes from --xi-list and theta from the sweep or --theta-list;
    # fig2's --temp sets beta
    for name, helptxt, flags in (
            ("fig1", "statistical-rate sweep preset", ("beta", "gamma", "omega")),
            ("fig2", "dimer bifurcation sweep preset", ("gamma", "coupling", "omega")),
            ("fig3", "2D-spectra panels preset", ("beta", "gamma", "coupling", "omega"))):
        pf = sub.add_parser(name, help=helptxt)
        _add_param_flags(pf, *flags)
        if name != "fig1":  # the single-oscillator rates read no convention
            _add_convention_flags(pf)
        count = _DEFAULTS.grid.count if name == "fig3" else THETA_AXIS.count
        pf.add_argument("--grid", type=int, default=count, help="sweep/axis point count")
        if name == "fig2":
            pf.add_argument("--temp", choices=("low", "high"), default="low",
                            help="temperature regime (beta*omega = 1 or 0.1)")
            pf.add_argument("--xi-list", default=",".join(map(repr, FIG2_XI)))
        if name == "fig3":
            pf.add_argument("--cutoff", type=int, default=_DEFAULTS.cutoff)
            pf.add_argument("--t2", type=float, default=_DEFAULTS.t2)
            pf.add_argument("--theta-list", default=None,
                            help="comma-separated theta values")
            pf.add_argument("--xi-list", default=",".join(map(repr, FIG3_XI)))
            pf.add_argument("--svg", action="store_true",
                            help="also render one SVG heatmap per grid")
        _add_output_flags(pf, "output path (fig3: directory)")

    p8 = sub.add_parser("sweep", help="generic sweep from a JSON config")
    p8.add_argument("--config", required=True, help="JSON config path")
    p8.add_argument("--out", help="override output CSV path")
    p8.add_argument("--threads", type=int, default=None, help="override thread count")
    return ap


def _floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(","))


def _config(args) -> RunConfig:
    """The one RunConfig of a subcommand: ``sweep``'s from its --config and overrides, the
    rest's from the flags it defines (a flag the command lacks keeps its RunConfig default)."""
    if args.command == "sweep":
        cfg = load_config(args.config)
        return replace(cfg, output_path=cfg.output_path if args.out is None else args.out,
                       threads=cfg.threads if args.threads is None else args.threads)
    flags = vars(args)
    params = _DEFAULTS.params.with_(**{field: flags[name] for name, (field, _)
                                       in PARAM_FLAGS.items() if name in flags})
    kw = {"threads": args.threads}
    if "convention" in flags:
        kw["conventions"] = Conventions(args.convention, args.conjugation, args.jump_basis,
                                        args.stat_dephasing == "on")
    if args.command in ("spectrum", "fig3"):  # they evaluate on a detuning grid
        lo, hi = parse_range(flags.get("range", GRID_RANGE))
        kw.update(cutoff=args.cutoff, t2=args.t2, grid=GridSpec(count=args.grid, lo=lo, hi=hi))
    elif flags.get("range", THETA_RANGE) is not None:  # the rest on a theta axis; ep-locate's
        # is optional, and an empty --range is malformed, not absent
        kw["sweep"] = (SweepAxis("theta", *parse_range(flags.get("range", THETA_RANGE)),
                                 flags.get("grid", 2)),)
    if "temp" in flags:
        params = params.with_(beta=1.0 if args.temp == "low" else 0.1)
    if "theta_list" in flags:
        kw["theta_list"] = FIG3_THETAS if args.theta_list is None else _floats(args.theta_list)
    if "xi_list" in flags:
        kw["xi_list"] = _floats(args.xi_list)
    elif args.command == "dimer-rates":
        kw["xi_list"] = (params.xi,)
    return RunConfig(params=params, **kw)


# Each command's generators (``sweeps.GENERATORS``), one per CSV in ``_files``' order
_GENERATED = {"single-rates": ("fig1",), "fig1": ("fig1",), "dimer-rates": ("fig2",),
              "fig2": ("fig2",), "ep-locate": ("ep-locate",), "spectrum": ("spectrum-grid",),
              "fig3": ("fig3-slices", "fig3-overlay"), "sweep": ("sweep",)}

# A file a command reads or writes, named in a refusal as ``flag value`` (a flag or config
# key and its value), then ``: name`` unless it is that value, or in a collision as ``source``;
# ``role`` "csv" or "svg" for a file ``_write`` writes by name (a sidecar goes with its CSV).
_File = namedtuple("_File", "flag value path name source role", defaults=("", "", ""))


def _files(args, cfg) -> list:
    """Every file the command reads or writes, where their names are made: ``sweep --config``,
    ``--out`` (``sweep``: ``output.path``) and its sidecar, ``spectrum --svg``; under fig3's
    ``--out``, two CSVs, each with its sidecar, then (``--svg``) each panel's SVG in order."""
    if args.command == "fig3":
        if not args.out:
            raise ConfigError("fig3 writes multiple files; --out DIR is required")
        names = [(name, "", role) for csv in ("fig3_slices.csv", "fig3_overlay.csv")
                 for name, role in ((csv, "csv"), (sidecar_path(csv), ""))]
        names += [(f"fig3_grid_theta{theta:.3f}_xi{xi:.2f}.svg",
                   f"--svg panel (theta, xi) = {(theta, xi)}", "svg")
                  for theta, xi in fig3_panels(cfg) if args.svg]
        return [_File("--out", args.out, os.path.join(args.out, name), name, source, role)
                for name, source, role in names]
    files = [_File("--config", args.config, args.config)] if args.command == "sweep" else []
    out = cfg.output_path if args.command == "sweep" else args.out
    flag = "output.path" if args.command == "sweep" and args.out is None else "--out"
    if out is not None:
        files += [_File(flag, out, out, role="csv"),
                  _File(flag, out, sidecar_path(out), sidecar_path(out))]
    if args.command == "spectrum" and args.svg is not None:
        files.append(_File("--svg", args.svg, args.svg, role="svg"))
    return files


def _check(files, mkdirs=False):
    """The one rule for a command's files, before compute (ConfigError, exit 1): no path
    is empty or a directory, each one's directory exists (``mkdirs``, for fig3: its existing
    part is a directory, the rest is made after compute), and no two resolve to one file."""
    seen = {}
    for f in files:
        named = f"{f.flag} {f.value}" + (f": {f.name}" if f.name else "")
        if not f.path:
            raise ConfigError(f"{f.flag} is an empty path")
        if os.path.isdir(f.path):
            raise ConfigError(f"{named} is a directory")
        parent = os.path.dirname(f.path) or "."
        while mkdirs and not os.path.lexists(parent):
            parent = os.path.dirname(parent) or "."
        if not os.path.isdir(parent):
            raise ConfigError(f"{f.flag} {f.value}: {parent} is not a directory")
        real = os.path.realpath(f.path)
        if real in seen:
            raise ConfigError(f"{seen[real]} and {f.source or named} both name {real}")
        seen[real] = f.source or named


def _write(config, results, files, under=None):
    """Result k to the k-th CSV in ``files`` with its sidecar (the one result to stdout when
    they list none), then the results' panels in order, each to the next listed SVG, each
    file reported on stderr as it is written. fig3 writes ``under`` its directory, made
    here and reported once, and its heatmaps draw the diagonal its slices are read along.
    Empties ``results``: a result's rows are freed once written, before any heatmap."""
    csvs, svgs = ([f.path for f in files if f.role == role] for role in ("csv", "svg"))
    panels = [panel for result in results for panel in result.grids]
    if under is not None:
        os.makedirs(under, exist_ok=True)
    if not csvs:
        sys.stdout.writelines(_csv_blocks(results.pop()))
    for path in csvs:
        write_outputs(results.pop(0), config, path)
        if under is None:
            print(f"wrote {path}", file=sys.stderr)
    for (theta, xi, grid), path in zip(panels, svgs):
        write_grid_svg(grid, path, title=f"Re R3, theta={theta:.3f}, xi={xi:.2f}",
                       diagonal=under is not None)
        if under is None:
            print(f"wrote {path}", file=sys.stderr)
    if under is not None:
        print(f"wrote fig3 outputs under {under}", file=sys.stderr)


def _run(args) -> int:
    cfg = _config(args)
    files = _files(args, cfg)
    under = args.out if args.command == "fig3" else None
    _check(files, mkdirs=under is not None)
    _write(cfg, [GENERATORS[name](cfg) for name in _GENERATED[args.command]], files, under)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # an overflow, invalid or divide-by-zero float operation raises FloatingPointError (an
        # ArithmeticError, exit 2) in place of a numpy warning naming a library source line
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _run(args)
    # LinAlgError subclasses ValueError, so the compute clause comes first
    except (np.linalg.LinAlgError, ArithmeticError, MemoryError) as exc:
        print(f"anyonosc: compute error: {exc or type(exc).__name__}", file=sys.stderr)
        return 2
    except (ConfigError, ParameterError, ValueError, OSError) as exc:
        print(f"anyonosc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
