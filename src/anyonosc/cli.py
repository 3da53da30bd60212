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
from dataclasses import replace

import numpy as np

from .dimer import CONJUGATION_CONVENTIONS, FREQUENCY_CONVENTIONS, find_exceptional_point
from .fock import JUMP_BASES
from .output import SweepResult, _csv_blocks, grid_result, write_grid_svg, write_outputs
from .params import ParameterError
from .spectra import GridSpec
from .sweeps import (FIG2_XI, FIG3_THETAS, FIG3_XI, THETA_AXIS, ConfigError, Conventions,
                     RunConfig, SweepAxis, load_config, parse_range, run_fig1, run_fig2,
                     run_fig3, run_spectrum, run_sweep)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: fig3's --theta would read as --theta-list
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # a minus before a digit starts a value, never a flag: -1e-05, -.5,
        # and the ranges and lists -0.5:0.5 and -1,0,1
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.exit(1, f"{self.prog}: error: {message}\n")


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
    """The one RunConfig of a subcommand, read from the flags it defines; a
    flag the command lacks keeps its RunConfig default."""
    flags = vars(args)
    params = _DEFAULTS.params.with_(**{field: flags[name] for name, (field, _)
                                       in PARAM_FLAGS.items() if name in flags})
    kw = {"threads": args.threads}
    if "convention" in flags:
        kw["conventions"] = Conventions(args.convention, args.conjugation, args.jump_basis,
                                        args.stat_dephasing == "on")
    if "cutoff" in flags:  # spectrum and fig3 evaluate on a detuning grid
        lo, hi = parse_range(flags.get("range", GRID_RANGE))
        kw.update(cutoff=args.cutoff, t2=args.t2, grid=GridSpec(count=args.grid, lo=lo, hi=hi))
    elif flags.get("range", THETA_RANGE):  # the rest on a theta axis; ep-locate's is optional
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


def _emit(result, path, config):
    if path:
        write_outputs(result, config, path)
        print(f"wrote {path}", file=sys.stderr)
    else:
        sys.stdout.writelines(_csv_blocks(result))


def _check_file(flag, path):
    """ConfigError, before anything is computed or written, when the file
    ``path`` could not be opened for writing: it is a directory, or its
    parent is missing or is not a directory."""
    if os.path.isdir(path):
        raise ConfigError(f"{flag} {path} is a directory")
    parent = os.path.dirname(path)
    if not os.path.isdir(parent or "."):
        raise ConfigError(f"{flag} {path}: {parent} is not a directory")


def _svg_name(theta, xi):
    return f"fig3_grid_theta{theta:.3f}_xi{xi:.2f}.svg"


def _run(args) -> int:
    if args.command == "sweep":
        cfg = load_config(args.config)
        cfg = replace(cfg, output_path=args.out or cfg.output_path,
                      threads=cfg.threads if args.threads is None else args.threads)
        if cfg.output_path:
            _check_file("--out" if args.out else "output.path", cfg.output_path)
        _emit(run_sweep(cfg), cfg.output_path, cfg)
        return 0

    cfg = _config(args)
    params, conv = cfg.params, cfg.conventions
    if args.out and args.command != "fig3":  # fig3's --out is a directory
        _check_file("--out", args.out)
    if args.command in ("single-rates", "fig1"):
        _emit(run_fig1(cfg), args.out, cfg)

    elif args.command in ("dimer-rates", "fig2"):
        _emit(run_fig2(cfg), args.out, cfg)

    elif args.command == "ep-locate":
        bracket = next(((ax.start, ax.stop) for ax in cfg.sweep), None)
        ep = find_exceptional_point(params, bracket, conv.frequency, conv.conjugation,
                                    conv.stat_dephasing)
        res = SweepResult(columns=("theta_star", "gap", "ep_found", "threshold"),
                          units=("rad", "omega", "bool", "omega"),
                          rows=[(ep.theta, ep.gap, int(ep.found), ep.threshold)],
                          metadata={"generator": "ep-locate"})
        _emit(res, args.out, cfg)

    elif args.command == "spectrum":
        if args.svg:  # refused before anything is computed or written
            if args.out and os.path.realpath(args.svg) in (
                    os.path.realpath(args.out), os.path.realpath(args.out + ".meta.json")):
                raise ConfigError(f"--svg {args.svg} would overwrite the --out CSV {args.out} "
                                  "or its sidecar")
            _check_file("--svg", args.svg)
        g = run_spectrum(cfg, params)
        _emit(grid_result(g), args.out, cfg)
        if args.svg:
            write_grid_svg(g, args.svg, title=f"Re R3, theta={params.theta:.3f}, xi={params.xi:.2f}")
            print(f"wrote {args.svg}", file=sys.stderr)

    elif args.command == "fig3":
        if not args.out:
            raise ConfigError("fig3 writes multiple files; --out DIR is required")
        made = args.out  # the part of --out that exists
        while not os.path.exists(made):
            made = os.path.dirname(made) or "."
        if not os.path.isdir(made):
            raise ConfigError(f"--out {args.out}: {made} is not a directory")
        if args.svg:  # one file per panel, in run_fig3's panel order
            panels = {}
            for xi in cfg.xi_list:
                for theta in cfg.theta_list:
                    name = _svg_name(theta, xi)
                    if name in panels:
                        raise ConfigError(f"--svg: panels (theta, xi) = {panels[name]} and "
                                          f"{(theta, xi)} would both write {name}")
                    panels[name] = (theta, xi)
        fig3 = run_fig3(cfg)
        os.makedirs(args.out, exist_ok=True)
        write_outputs(fig3.slices, cfg, os.path.join(args.out, "fig3_slices.csv"))
        write_outputs(fig3.overlay, cfg, os.path.join(args.out, "fig3_overlay.csv"))
        if args.svg:
            for theta, xi, g in fig3.grids:
                write_grid_svg(g, os.path.join(args.out, _svg_name(theta, xi)),
                               title=f"Re R3, theta={theta:.3f}, xi={xi:.2f}", diagonal=True)
        print(f"wrote fig3 outputs under {args.out}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
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
