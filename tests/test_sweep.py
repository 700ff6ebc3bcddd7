import json
import math

import numpy as np
import pytest

from smhd.cli import main
from smhd.core import PhysParams
from smhd.errors import ConfigError, SmhdError
from smhd.shock import lax_verdict, rectilinear_shock
from smhd.sweep import (
    CODE_INVALID,
    SweepSpec,
    run_sweep,
    sweep_csv,
    sweep_svg,
    symmetric_pair,
)
from smhd.symmetrization import (
    CvsStability,
    cvs_nsc_kernel,
    cvs_nsc_verdict,
    cvs_sufficient_kernel,
    cvs_sufficient_verdict,
)


def _spec(verdict, x, y, fixed=None):
    return SweepSpec.from_dict({
        "verdict": verdict,
        "x_axis": {"name": x[0], "min": x[1], "max": x[2], "count": x[3]},
        "y_axis": {"name": y[0], "min": y[1], "max": y[2], "count": y[3]},
        "fixed": fixed or {},
    })


_NSC_CODES = {CvsStability.NSC_STABLE: 2, CvsStability.NSC_UNSTABLE: 0,
              CvsStability.EXCEPTIONAL_POINT: 3}


def _point(verdict, p):
    """Code and margin of one grid point through the public scalar API."""
    g = p.get("g", 1.0)
    if verdict == "lax":
        shock = rectilinear_shock(p.get("h_minus", 1.0), p["ratio"], p.get("b1_plus", 0.5),
                                  p.get("b2", 0.0), PhysParams(g))
        diag = lax_verdict(shock.side_pair())
        return (2 if diag.satisfied else 0), abs(diag.height_jump)
    plus, minus = symmetric_pair(p["v2_jump"], p["b2_plus"], p.get("h", 1.0))
    if verdict == "cvs-sufficient":
        result = cvs_sufficient_verdict(plus, minus, p.get("epsilon", 1e-6))
        return (2 if result.tag is CvsStability.SUFFICIENTLY_STABLE else 1), result.margin
    result = cvs_nsc_verdict(plus, minus, PhysParams(g))
    return _NSC_CODES.get(result.tag, 1), result.margin


def _pointwise(spec):
    """The per-point reference of ``run_sweep``: -1 and margin 0 where the API raises."""
    xs, ys = spec.x_axis.values, spec.y_axis.values
    codes = np.empty((xs.size, ys.size), dtype=int)
    margins = np.empty((xs.size, ys.size))
    for i, xv in enumerate(xs.tolist()):
        for j, yv in enumerate(ys.tolist()):
            p = {**spec.fixed, spec.x_axis.name: xv, spec.y_axis.name: yv}
            try:
                codes[i, j], margins[i, j] = _point(spec.verdict, p)
            except SmhdError:
                codes[i, j], margins[i, j] = CODE_INVALID, 0.0
    return codes, margins


_SEEDED = np.random.default_rng(6).uniform(0.1, 3.0, 3)

# The v2_jump and |b2_plus| axes share their samples, so the grids hold
# points exactly on a = b and a = 2b, besides h or g crossing 0.
GRIDS = [
    ("cvs-nsc", ("v2_jump", 0.0, 4.0, 41), ("b2_plus", -4.0, 4.0, 81), {"h": 0.5, "g": 2.0}),
    ("cvs-nsc", ("v2_jump", 0.0, 8.0, 81), ("b2_plus", 0.0, 4.0, 41), {}),
    ("cvs-nsc", ("h", -1.0, 2.0, 31), ("v2_jump", -6.0, 6.0, 61), {"b2_plus": 1.0}),
    ("cvs-nsc", ("b2_plus", -2.0, 2.0, 41), ("g", -0.5, 1.5, 21), {"v2_jump": 2.0}),
    ("cvs-sufficient", ("v2_jump", -4.0, 4.0, 81), ("b2_plus", -2.0, 2.0, 41),
     {"h": 1.5, "epsilon": 1e-6}),
    ("cvs-sufficient", ("epsilon", -1.0, 3.0, 33), ("b2_plus", -2.0, 2.0, 41),
     {"v2_jump": 1.5}),
    ("cvs-sufficient", ("h", -1.0, 1.0, 21), ("v2_jump", 0.0, 3.0, 31), {"b2_plus": 0.7}),
    # Axes the kernel ignores (g) or reads alone (epsilon).
    ("cvs-sufficient", ("g", -1.0, 1.0, 3), ("h", -1.0, 1.0, 5),
     {"v2_jump": 1.0, "b2_plus": 0.5}),
    ("cvs-sufficient", ("g", 0.5, 1.5, 3), ("epsilon", 0.0, 2.0, 5),
     {"v2_jump": 1.0, "b2_plus": 0.5}),
    # Subnormal jumps, where 0.5 v - (-0.5 v) differs from v, and an underflowing g h.
    ("cvs-sufficient", ("v2_jump", 0.0, 5e-323, 11), ("b2_plus", -5e-323, 5e-323, 11),
     {"epsilon": 0.0}),
    ("cvs-nsc", ("v2_jump", 0.0, 5e-323, 11), ("b2_plus", -5e-323, 5e-323, 11),
     {"g": 1e-200, "h": 1e-200}),
    # lax: configs/sweep_lax.json, then seeded b2 != 0 and g != 1.
    ("lax", ("ratio", 0.2, 3.0, 60), ("b1_plus", 0.1, 2.0, 40),
     {"h_minus": 1.0, "b2": 0.0, "g": 1.0}),
    ("lax", ("ratio", 0.3, 4.1, 39), ("h_minus", 0.2, 3.7, 36),
     {"b1_plus": _SEEDED[0], "b2": -_SEEDED[1], "g": _SEEDED[2]}),
    # Ratios within classify's tolerance of 1 are not shocks.
    ("lax", ("ratio", 1.0 - 1e-8, 1.0 + 1e-8, 201), ("b1_plus", 0.1, 2.0, 5), {}),
    # ratio, h_minus, g and b1_plus crossing 0.
    ("lax", ("ratio", -1.0, 3.0, 41), ("h_minus", -1.0, 2.0, 31), {}),
    ("lax", ("ratio", 0.5, 2.0, 7), ("g", -1.0, 2.0, 31), {"b2": 0.3}),
    ("lax", ("b1_plus", -1.0, 1.0, 21), ("ratio", 0.5, 2.0, 7), {}),
    # Overflow of b1_plus**2, of h_mean**2 and of h**6, underflow of h_plus, and
    # a non-finite fixed value.
    ("lax", ("ratio", 0.5, 2.0, 5), ("b1_plus", 1.0, 1e200, 21), {}),
    ("lax", ("h_minus", 1e-320, 1e300, 41), ("ratio", 0.5, 2.0, 7), {}),
    ("lax", ("ratio", 1e-320, 1e300, 41), ("b1_plus", 0.1, 1.0, 3), {}),
    ("lax", ("g", 1e-320, 1e300, 41), ("ratio", 0.5, 2.0, 7), {}),
    ("lax", ("b1_plus", 1e-320, 1e300, 41), ("ratio", 0.5, 2.0, 7), {}),
    ("lax", ("h_minus", 1e55, 1e62, 15), ("ratio", 0.5, 3.0, 6), {"g": 1e-57, "b1_plus": 1e-100}),
    ("lax", ("ratio", 0.5, 2.0, 4), ("g", 0.5, 2.0, 3), {"b2": math.inf}),
    # Tiny h and g whose product underflows to 0 at some points and not at others.
    ("cvs-nsc", ("h", 0.0, 4e-162, 5), ("g", 0.0, 4e-162, 5), {"v2_jump": 1.0, "b2_plus": 1e-200}),
]


@pytest.mark.parametrize("verdict,x,y,fixed", GRIDS)
def test_run_sweep_matches_pointwise_verdicts(verdict, x, y, fixed):
    spec = _spec(verdict, x, y, fixed)
    codes, margins = run_sweep(spec)
    ref_codes, ref_margins = _pointwise(spec)
    assert codes.dtype == ref_codes.dtype and margins.dtype == ref_margins.dtype
    assert np.array_equal(codes, ref_codes)
    assert np.array_equal(margins.view(np.int64), ref_margins.view(np.int64))


def test_grids_hit_the_curves_exactly():
    codes, _ = run_sweep(_spec(*GRIDS[1]))
    a = np.linspace(0.0, 8.0, 81)
    b = np.linspace(0.0, 4.0, 41)
    on_a_eq_b = a[:, None] == b[None, :]
    on_a_eq_2b = a[:, None] == 2.0 * b[None, :]
    assert on_a_eq_b.sum() == 41 and on_a_eq_2b.sum() == 41
    assert np.all(codes[on_a_eq_b] == 3) and np.all(codes[on_a_eq_2b] == 3)


def test_invalid_rows():
    codes, margins = run_sweep(_spec(*GRIDS[4]))
    zero = np.linspace(-2.0, 2.0, 41) == 0.0
    assert np.all(codes[:, zero] == CODE_INVALID) and np.all(margins[:, zero] == 0.0)
    assert np.all(codes[:, ~zero] != CODE_INVALID)

    codes, _ = run_sweep(_spec(*GRIDS[2]))
    h = np.linspace(-1.0, 2.0, 31)
    assert np.all(codes[h <= 0.0] == CODE_INVALID)
    assert np.all(codes[h > 0.0] != CODE_INVALID)

    codes, _ = run_sweep(_spec(*GRIDS[3]))
    g = np.linspace(-0.5, 1.5, 21)
    assert np.all(codes[:, g <= 0.0] == CODE_INVALID)
    assert np.all(codes[:, g > 0.0] != CODE_INVALID)

    # b^2 + g h underflows to 0 (b^2 already does): invalid although h and g are > 0
    spec = _spec(*GRIDS[-1])
    codes, _ = run_sweep(spec)
    underflow = spec.x_axis.values[:, None] * spec.y_axis.values[None, :] == 0.0
    assert np.array_equal(codes == CODE_INVALID, underflow)
    assert underflow[1:, 1:].any() and not underflow.all()


@pytest.mark.parametrize("verdict,x,y,fixed", [
    ("cvs-nsc", ("v2_jump", 0.0, 1.0, 3), ("h", 0.5, 1.0, 3), {}),
    ("cvs-sufficient", ("b2_plus", 0.0, 1.0, 3), ("epsilon", 0.0, 1.0, 3), {}),
    ("lax", ("b1_plus", 0.1, 1.0, 3), ("h_minus", 0.5, 1.0, 3), {}),
])
def test_missing_parameter(verdict, x, y, fixed):
    with pytest.raises(ConfigError, match="missing parameter"):
        run_sweep(_spec(verdict, x, y, fixed))


@pytest.mark.parametrize("verdict,x,y,fixed", [
    ("cvs-nsc", ("v2_jump", 0.0, 1.0, 3), ("b2plus", 0.5, 1.0, 3), {"b2_plus": 1.0}),
    ("cvs-nsc", ("v2_jump", 0.0, 1.0, 3), ("b2_plus", 0.5, 1.0, 3), {"epsilon": 0.1}),
    ("lax", ("ratio", 0.5, 2.0, 3), ("b1_plus", 0.1, 1.0, 3), {"h": 1.0}),
    ("cvs-sufficient", ("v2_jump", 0.0, 1.0, 3), ("v2_jump", 0.0, 1.0, 3), {"b2_plus": 1.0}),
    ("cvs-sufficient", ("v2_jump", 0.0, 1.0, 3), ("b2_plus", 0.0, 1.0, 3), {"h": "high"}),
])
def test_spec_rejects_bad_parameters(verdict, x, y, fixed):
    with pytest.raises(ConfigError):
        _spec(verdict, x, y, fixed)


def _nsc_reference(a, b, big_g, tol=1e-9):
    """Pointwise closed form: first curve within the band, then min() distances."""
    outer = 2.0 * math.sqrt(b * b + 2.0 * big_g)
    curves = [b, math.sqrt(b * b + big_g) - b, math.sqrt(b * b + big_g),
              b * math.sqrt((b * b + 2.0 * big_g) / (b * b + big_g)), 2.0 * b, outer]
    band = tol * max(1.0, a, outer)
    for k, value in enumerate(curves, 1):
        if abs(a - value) <= band:
            return 3, k, abs(a - value)
    if a < 2.0 * b or a > outer:
        return 2, 0, min(abs(a - value) for value in curves)
    return 0, 0, min(abs(a - 2.0 * b), abs(outer - a))


def _sufficient_reference(jump, b2p, b2m, epsilon):
    total = abs(b2p) + abs(b2m)
    stable = total - jump >= epsilon and max(abs(b2p), abs(b2m)) >= epsilon
    return (2 if stable else 1), abs(total - jump)


@pytest.mark.parametrize("a_max,b_max,big_g,tol", [
    (8.0, 4.0, 1.0, 1e-9),      # a = b and a = 2b on the grid
    (3.0, 1.5, 0.7, 0.0),       # zero band: only exact hits are exceptional
    (2.0, 0.0, 1.0, 1e-9),      # b = 0: curves 1, 4, 5 meet at a = 0, curves 2, 3 at a = 1
    (1e300, 1e200, 1e300, 1e-9),  # b^2 overflows: curve 4 is NaN
])
def test_nsc_kernel_matches_closed_form(monkeypatch, a_max, b_max, big_g, tol):
    monkeypatch.setattr("smhd.symmetrization.DEFAULT_TOL", tol)
    a = np.linspace(0.0, a_max, 81)[:, None]
    b = np.linspace(0.0, b_max, 41)[None, :] if b_max else np.zeros((1, 1))
    with np.errstate(all="ignore"):
        codes, index, margins = cvs_nsc_kernel(a, b, big_g)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            ref = _nsc_reference(float(a[i, 0]), float(b[0, j]), big_g, tol)
            assert (int(codes[i, j]), int(index[i, j]), float(margins[i, j])) == ref


def test_nsc_kernel_first_curve_wins(monkeypatch):
    assert cvs_nsc_kernel(0.0, 0.0, 1.0)[:2] == (3, 1)
    assert cvs_nsc_kernel(1.0, 0.0, 1.0)[:2] == (3, 2)
    monkeypatch.setattr("smhd.symmetrization.DEFAULT_TOL", 0.0)
    assert cvs_nsc_kernel(1.0, 1.0, 1.0)[:2] == (3, 1)


def test_sufficient_kernel_matches_closed_form():
    jump = np.linspace(0.0, 4.0, 41)[:, None, None]
    b2p = np.linspace(-2.0, 2.0, 21)[None, :, None]
    b2m = np.linspace(-2.0, 2.0, 21)[None, None, :]
    for epsilon in (0.0, 1e-6, 0.5):
        codes, margins = cvs_sufficient_kernel(jump, b2p, b2m, epsilon)
        for idx in np.ndindex(codes.shape):
            i, j, k = idx
            ref = _sufficient_reference(float(jump[i, 0, 0]), float(b2p[0, j, 0]),
                                        float(b2m[0, 0, k]), epsilon)
            assert (int(codes[idx]), float(margins[idx])) == ref


def test_kernel_index_matches_verdict_index():
    b, h, g = 0.8, 1.25, 0.9
    big_g = g * h
    curves = [b, math.sqrt(b * b + big_g) - b, math.sqrt(b * b + big_g),
              b * math.sqrt((b * b + 2 * big_g) / (b * b + big_g)), 2 * b,
              2 * math.sqrt(b * b + 2 * big_g)]
    a = np.array(curves)
    codes, index, margins = cvs_nsc_kernel(a, np.full(6, b), np.full(6, big_g))
    for k, value in enumerate(curves, 1):
        verdict = cvs_nsc_verdict(*symmetric_pair(value, b, h), PhysParams(g))
        assert verdict.tag is CvsStability.EXCEPTIONAL_POINT
        assert verdict.index == k == index[k - 1]
        assert codes[k - 1] == 3 and margins[k - 1] == verdict.margin
        scalar_code, scalar_index, _ = cvs_nsc_kernel(value, b, big_g)
        assert (scalar_code, scalar_index) == (3, k)


def test_sweep_csv_matches_generic_writer(tmp_path):
    spec = _spec(*GRIDS[2])
    codes, margins = run_sweep(spec)
    xs, ys = spec.x_axis.values, spec.y_axis.values
    # plain-Python reference: each value as format(float(v), ".17g"), LF line ends
    lines = ["h,v2_jump,code,margin"]
    lines += [",".join(format(float(v), ".17g") for v in (xs[i], ys[j], codes[i, j], margins[i, j]))
              for i in range(xs.size) for j in range(ys.size)]
    sweep_csv(spec, codes, margins, tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_sweep_svg_cells_in_row_major_order(tmp_path):
    spec = _spec(*GRIDS[3])
    codes, _ = run_sweep(spec)
    sweep_svg(spec, codes, tmp_path / "sweep.svg")
    text = (tmp_path / "sweep.svg").read_text()
    height = codes.shape[1] * 4 + 2 * 46
    for code in np.unique(codes):
        cells = "".join(f"M{46 + i * 4} {height - 46 - (j + 1) * 4}h4v4h-4z"
                        for i in range(codes.shape[0]) for j in range(codes.shape[1])
                        if codes[i, j] == code)
        assert f'<path d="{cells}"' in text


def test_lax_overflow_points_are_invalid(tmp_path, capsys):
    # b1_plus**2 overflows a Python float beyond ~1.3e154.
    doc = {"verdict": "lax",
           "x_axis": {"name": "ratio", "min": 0.5, "max": 2.0, "count": 3},
           "y_axis": {"name": "b1_plus", "min": 1.0, "max": 1e200, "count": 3},
           "fixed": {}}
    codes, margins = run_sweep(SweepSpec.from_dict(doc))
    assert np.all(codes[:, 1:] == CODE_INVALID) and np.all(margins[:, 1:] == 0.0)
    assert np.all(codes[:, 0] != CODE_INVALID)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert [int(r.split(",")[2]) for r in rows] == codes.ravel().tolist()
