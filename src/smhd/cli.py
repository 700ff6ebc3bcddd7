"""Command-line interface.

Subcommands: classify, shock, stability, sweep, simulate.  All file
outputs are deterministic; exit codes are 0 (success), 1 (malformed
input or configuration, including a command line the parser rejects),
2 (inadmissible data / Lax-violated shock), 3 (positivity loss), 4 (CFL
violation), 5 (non-finite state).  An ``SmhdError`` escaping a
subcommand becomes one ``<command>: <message>`` line on stderr and the
code ``EXIT_CODES`` gives its type.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import PhysParams
from .errors import CflViolation, ConfigError, NonFiniteState, PositivityLoss, SmhdError
from .fv import SimConfig, simulate_1d, simulate_2d
from .ioutil import dump_json, load_json, side_pair_from_doc, side_pair_to_doc, write_rows_csv
from .jumps import DiscontinuityType, classify, rh_residual, trace_quantities
from .linear import LinearConfig, linear_halfplane_simulate
from .shock import lax_verdict, linearized_setup, rectilinear_shock
from .sweep import SweepSpec, run_sweep, sweep_csv, sweep_svg, symmetric_pair
from .symmetrization import (DEFAULT_EPSILON, cvs_nsc_verdict, cvs_sufficient_verdict,
                             lambda_for_cvs)

# Exit code of an SmhdError escaping a subcommand, by its exact type; any
# other SmhdError exits 1.  Codes 0 and 2 come from the subcommands' results.
EXIT_CODES = {PositivityLoss: 3, CflViolation: 4, NonFiniteState: 5}


def _out_dir(args) -> Path:
    out = Path(args.out) if getattr(args, "out", None) else Path.cwd()
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write to --out {out}: {exc.strerror}") from exc
    return out


def cmd_classify(args) -> int:
    if not args.input:
        raise ConfigError("--input must name a side-pair JSON file")
    sp = side_pair_from_doc(load_json(args.input))
    out = _out_dir(args) if args.out else None  # before any report line is printed
    kind = classify(sp)
    tq = trace_quantities(sp)
    res = rh_residual(sp)
    doc = {
        "kind": kind.kind.value,
        "reason": kind.reason,
        "note": kind.note,
        "residual_max": res.max_abs,
        "residual_scale": res.scale,
        "traces": dataclasses.asdict(tq),
    }
    diag = choice = None
    if kind.kind is DiscontinuityType.SHOCK:
        diag = lax_verdict(sp)
        doc["lax"] = {"satisfied": diag.satisfied, "k": diag.k,
                      "height_jump": diag.height_jump}
    if kind.kind is DiscontinuityType.CURRENT_VORTEX_SHEET:
        try:
            choice = lambda_for_cvs(sp.plus, sp.minus)
            verdict = cvs_sufficient_verdict(sp.plus, sp.minus, args.epsilon)
            doc["symmetrizer"] = {
                "lambda_plus": choice.lambda_plus,
                "lambda_minus": choice.lambda_minus,
                "hyperbolic": choice.hyperbolic_plus and choice.hyperbolic_minus,
            }
            doc["cvs_verdict"] = {"tag": verdict.tag.value, "margin": verdict.margin}
        except SmhdError as exc:
            choice = None
            doc["cvs_verdict"] = {"tag": "unavailable", "error": str(exc)}

    print(f"kind: {kind}")
    print(f"residual: max |r| = {res.max_abs:.6e} (scale {res.scale:.6e})")
    print(f"traces: m = {tq.m_minus:.6g}, b = {tq.b_minus:.6g}, "
          f"[h] = {sp.plus.h - sp.minus.h:.6g}")
    if diag:
        print(f"lax: satisfied={diag.satisfied} k={diag.k} [h]={diag.height_jump:.6g}")
    if choice:
        print(f"symmetrizer: lambda+ = {choice.lambda_plus:.6g}, "
              f"lambda- = {choice.lambda_minus:.6g}")
        print(f"cvs verdict: {verdict.tag.value} (margin {verdict.margin:.6g})")
    if args.format == "json" or out:
        text = dump_json(doc, out / "classify.json" if out else None)
        if args.format == "json":
            print(text)
    return 2 if kind.kind is DiscontinuityType.INADMISSIBLE else 0


def cmd_shock(args) -> int:
    params = PhysParams(g=args.g)
    shock = rectilinear_shock(args.h_minus, args.ratio, args.b1_plus, args.b2, params)
    pair = shock.side_pair()
    diag = lax_verdict(pair)
    doc = {
        "shock": dataclasses.asdict(shock),
        "pair": side_pair_to_doc(pair),
        "diagnostics": {
            "eigenvalues_plus": list(diag.eigenvalues_plus),
            "eigenvalues_minus": list(diag.eigenvalues_minus),
            "cg_plus": diag.cg_plus, "cg_minus": diag.cg_minus,
            "ca_plus": diag.ca_plus, "ca_minus": diag.ca_minus,
            "det_boundary_plus": diag.det_boundary_plus,
            "det_boundary_minus": diag.det_boundary_minus,
            "satisfied": diag.satisfied, "k": diag.k,
            "height_jump": diag.height_jump,
        },
        "linearized": None,
    }
    code = 0
    if diag.satisfied:
        doc["linearized"] = dataclasses.asdict(linearized_setup(shock, params))
    else:
        doc["warning"] = "Lax violated: [h]<=0; linearized setup unavailable"
        print("warning: Lax violated: [h]<=0", file=sys.stderr)
        code = 2
    text = dump_json(doc, _out_dir(args) / "shock.json" if args.out else None)
    print(text)
    return code


def cmd_stability(args) -> int:
    if args.mode == "cvs":
        if not args.input:
            raise ConfigError("cvs mode: --input must name a side-pair JSON file")
        sp = side_pair_from_doc(load_json(args.input))
        choice = lambda_for_cvs(sp.plus, sp.minus)
        verdict = cvs_sufficient_verdict(sp.plus, sp.minus, args.epsilon)
        doc = {**dataclasses.asdict(choice), "verdict": verdict.tag.value,
               "margin": verdict.margin}
    else:
        plus, minus = symmetric_pair(args.v2_jump, args.b2_plus, args.h)
        verdict = cvs_nsc_verdict(plus, minus, PhysParams(g=args.g))
        doc = {"verdict": verdict.tag.value, "margin": verdict.margin,
               "exceptional_index": verdict.index}
    text = dump_json(doc, _out_dir(args) / "stability.json" if args.out else None)
    print(text)
    return 0


def cmd_sweep(args) -> int:
    spec = SweepSpec.from_dict(load_json(args.spec))
    codes, margins = run_sweep(spec)
    out = _out_dir(args)
    written = []
    if args.format in ("csv", "both"):
        sweep_csv(spec, codes, margins, out / "sweep.csv")
        written.append(str(out / "sweep.csv"))
    if args.format in ("svg", "both"):
        sweep_svg(spec, codes, out / "sweep.svg")
        written.append(str(out / "sweep.svg"))
    counts = {int(c): int(np.sum(codes == c)) for c in np.unique(codes)}
    print(f"sweep: {spec.verdict} on {codes.shape[0]}x{codes.shape[1]} grid -> "
          f"{', '.join(written)}")
    print(f"verdict counts: {counts}")
    return 0


def cmd_simulate(args) -> int:
    if not args.config:
        raise ConfigError("--config must name a JSON configuration file")
    doc = load_json(args.config)
    kind = doc.get("kind", "fv")
    out = _out_dir(args)
    if kind == "linear":
        setup, lcfg = LinearConfig.from_dict(doc)
        res = linear_halfplane_simulate(setup, lcfg)
        write_rows_csv("t,l2U,h1U,traceNorm,frontNorm,energy",
                       (res.times, res.l2_u, res.h1_u, res.trace_norm, res.front_norm, res.energy),
                       out / "timeseries.csv")
        print(f"linear run: {res.steps} steps, dt={res.dt:.6g}")
        print(f"norm ratio max_t ||U||/||U(0)|| = {res.norm_ratio_max:.4f}")
        print(f"wrote {out / 'timeseries.csv'}")
        return 0
    if kind != "fv":
        raise ConfigError(f"unknown config kind {kind!r}")
    cfg = SimConfig.from_dict(doc)
    res = simulate_1d(cfg) if cfg.dimensions == 1 else simulate_2d(cfg)
    write_rows_csv("t,mass,momX,momY,fluxBx,fluxBy,divNorm,frontAmp,energy",
                   (res.times, *res.conserved.T, res.div_norm, res.front_amplitude, res.energy),
                   out / "timeseries.csv")
    axes = "xy"[:cfg.dimensions]
    coords = np.meshgrid(*(res.grid[a] for a in axes), indexing="ij")
    write_rows_csv(",".join([*axes, "h,momX,momY,fluxBx,fluxBy"]),
                   [c.ravel() for c in (*coords, *res.snapshot)], out / "snapshot.csv")
    print(f"run: {res.steps} steps on {cfg.cells} cells")
    fp = res.front_position
    if np.any(np.isfinite(fp)):
        drift = float(np.nanmax(np.abs(fp - fp[0])))
        print(f"front drift: {drift:.6g} (dx = {res.grid['dx']:.6g})")
    print(f"max divergence residual: {float(np.max(res.div_norm)):.6g}")
    print(f"max conservation defect: {res.max_conservation_defect:.3e}")
    amps = res.front_amplitude
    if np.any(np.isfinite(amps)) and np.nanmax(amps) > 0:
        a0 = amps[np.isfinite(amps)][0]
        aT = amps[np.isfinite(amps)][-1]
        if a0 > 0:
            print(f"front amplitude ratio a(T)/a(0) = {aT / a0:.4f}")
    print(f"wrote {out / 'timeseries.csv'}, {out / 'snapshot.csv'}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error: argparse's own 2 is a verdict code here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  Each leaf parser is its own
    ``parser`` default, so that ``main`` reports a stray flag with that parser's usage."""
    ap = _Parser(prog="smhd", description="Shallow-water MHD analysis and simulation")
    ap.add_argument("--version", action="version", version=f"smhd {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a two-sided state from JSON")
    p.add_argument("--input", required=False, default="", help="side-pair JSON file")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                   help="margin for the sheet stability condition")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None, help="directory for classify.json")
    p.set_defaults(func=cmd_classify, parser=p)

    p = sub.add_parser("shock", help="construct a rectilinear shock bundle")
    p.add_argument("h_minus", type=float)
    p.add_argument("ratio", type=float)
    p.add_argument("b1_plus", type=float)
    p.add_argument("b2", type=float)
    p.add_argument("--g", type=float, default=1.0)
    p.add_argument("--out", default=None, help="directory for shock.json")
    p.set_defaults(func=cmd_shock, parser=p)

    p = sub.add_parser("stability", help="current-vortex-sheet stability verdicts")
    p.set_defaults(func=cmd_stability)
    modes = p.add_subparsers(dest="mode", required=True)  # each mode takes only its own flags
    m = modes.add_parser("cvs", help="symmetrizer and sufficient verdict of a side pair")
    m.add_argument("--input", default="", help="side-pair JSON file")
    m.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    m.add_argument("--out", default=None)
    m.set_defaults(parser=m)
    m = modes.add_parser("nsc", help="necessary-and-sufficient verdict of a symmetric pair")
    m.add_argument("--v2-jump", dest="v2_jump", type=float, default=0.0)
    m.add_argument("--b2-plus", dest="b2_plus", type=float, default=1.0)
    m.add_argument("--h", type=float, default=1.0)
    m.add_argument("--g", type=float, default=1.0)
    m.add_argument("--out", default=None)
    m.set_defaults(parser=m)

    p = sub.add_parser("sweep", help="two-parameter stability sweep (CSV + SVG)")
    p.add_argument("--spec", required=True, help="sweep spec JSON file")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--format", choices=("csv", "svg", "both"), default="both")
    p.set_defaults(func=cmd_sweep, parser=p)

    p = sub.add_parser("simulate", help="run a finite-volume or linearized simulation")
    p.add_argument("--config", required=False, default="", help="config JSON file")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_simulate, parser=p)
    return ap


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except SmhdError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_CODES.get(type(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
