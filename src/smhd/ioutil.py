"""Deterministic JSON/CSV serialization, config checks, and the run skeleton.

``write_rows_csv`` is the one table writer of every CSV file the CLI
writes: '.' decimals, 17 significant digits for floats, ``%d`` for
integer columns and LF line endings, so identical inputs reproduce
byte-identical files.  It formats ``.tolist()`` blocks of rows and
writes the whole text with one call, so a row that fails to format
leaves no partial file.  Page faults and speed do not decide it: a 256x64
2D run after a one-call or a block-streamed snapshot write takes ~2k
minor page faults either way (the fv step keeps no per-step full-state
temporaries), and both writes of that 16384-row file take ~48 ms.

Each document value is read once, where it is used, by ``check_number``
(a string or a bool is no number), ``check_float``, ``check_count`` or
``check_pair``; ``check_keys`` and ``config_kwargs`` find unknown and
missing keys.  Each failure is a ConfigError naming the field.  The fv
and the linear simulators share ``check_run_fields``, ``cell_grid``
(cell centres and widths), ``Recorder`` (which steps a run records) and
the step cap ``MAX_STEPS``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import sys
from pathlib import Path

import numpy as np

from .core import FrontGeometry, PhysParams, State
from .errors import CflViolation, ConfigError
from .jumps import SidePair

# Rows per .tolist() block of write_rows_csv.
CSV_BLOCK_ROWS = 1024
# Most cells a run config may hold, over all its dimensions (1024 x 1024).
MAX_CELLS = 2**20
# Most time steps a run of either simulator may take (ACCEPT-11's 400x64 linear run takes ~3.4k).
MAX_STEPS = 100_000


def fmt(x: float) -> str:
    """17-significant-digit decimal rendering (lossless for float64)."""
    return format(float(x), ".17g")


def state_to_doc(u: State) -> dict:
    return {"h": u.h, "v": [float(u.v[0]), float(u.v[1])],
            "B": [float(u.B[0]), float(u.B[1])]}


def state_from_doc(doc: dict, name: str = "state") -> State:
    check_keys(doc, ("h", "v", "B"), f"{name} key", required=("h", "v", "B"))
    return State(h=check_number(doc["h"], f"{name} h"), v=check_pair(doc["v"], f"{name} v"),
                 B=check_pair(doc["B"], f"{name} B"))


def side_pair_to_doc(sp: SidePair) -> dict:
    return {
        "plus": state_to_doc(sp.plus),
        "minus": state_to_doc(sp.minus),
        "front": {"slope": sp.front.slope, "speed": sp.front.speed},
        "g": sp.params.g,
    }


def side_pair_from_doc(doc: dict) -> SidePair:
    check_keys(doc, ("plus", "minus", "front", "g"), "side-pair key", required=("plus", "minus"))
    front = check_keys(doc.get("front", {}), ("slope", "speed"), "front key")
    return SidePair(
        plus=state_from_doc(doc["plus"], "plus"),
        minus=state_from_doc(doc["minus"], "minus"),
        front=FrontGeometry(*(check_number(front.get(k, 0.0), f"front {k}")
                              for k in ("slope", "speed"))),
        params=PhysParams(g=check_number(doc.get("g", 1.0), "g")),
    )


def load_json(path: str | Path) -> dict:
    """The JSON object in ``path``; an unreadable file or a non-object is a ConfigError."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"no such file: {p}")
    try:
        with open(p, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"invalid JSON in {p}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{p}: top level must be a JSON object, got {type(doc).__name__}")
    return doc


def check_keys(doc, names: tuple[str, ...], what: str = "config key",
               required: tuple[str, ...] = ()) -> dict:
    """``doc`` itself if it is an object whose keys all lie in ``names`` and
    include ``required``, else a ConfigError naming the key."""
    if not isinstance(doc, dict):
        raise ConfigError(f"expected an object of {what}s, got {type(doc).__name__}")
    for key in doc:
        if key not in names:
            raise ConfigError(f"unknown {what} {key!r}; expected one of {names}")
    for key in required:
        if key not in doc:
            raise ConfigError(f"missing {what} {key!r}")
    return doc


def config_kwargs(cls, doc: dict, allowed: tuple[str, ...] = (),
                  required: tuple[str, ...] = ()) -> dict:
    """Keyword arguments for the dataclass ``cls`` from a config document.

    The document may hold the fields of ``cls`` and the keys ``allowed``
    and ``required``.  It must hold ``required`` and every field without
    a default; omitted fields keep their dataclass default.
    """
    fields = dataclasses.fields(cls)
    names = tuple(f.name for f in fields)
    needed = tuple(f.name for f in fields if f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING)
    check_keys(doc, names + allowed + required, required=needed + required)
    return {name: doc[name] for name in names if name in doc}


def check_number(value, name: str) -> float:
    """``value`` as a float (+-inf for an integer beyond the float range, as for a JSON
    1e400); anything but a real number (a string, a bool) is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max:
        return math.inf if value > 0 else -math.inf
    return float(value)


def check_float(value, name: str, lo=0.0, hi=math.inf, error=ConfigError) -> float:
    """``check_number(value)``; a number outside (lo, hi) is ``error``."""
    x = check_number(value, name)
    if not lo < x < hi:
        raise error(f"{name} must lie in ({lo:g}, {hi:g}), got {x}")
    return x


def check_count(value, name: str, lo: int, hi: int) -> int:
    """``check_number(value)`` as an int; a fraction or a count outside [lo, hi] is a
    ConfigError."""
    x = check_number(value, name)
    if not x.is_integer():
        raise ConfigError(f"{name} must be a whole number, got {x}")
    if not lo <= x <= hi:
        raise ConfigError(f"{name} must lie in [{lo}, {hi}], got {x:g}")
    return int(x)


def check_pair(value, name: str) -> tuple[float, float]:
    """``value`` as two floats; anything but a list of two numbers is a ConfigError."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{name} must be a pair of numbers, got {value!r}")
    return check_number(value[0], name), check_number(value[1], name)


def check_run_fields(cfg, ndim: int) -> None:
    """Convert and check, in place, the run fields of the fv and linear configs.

    ``cells`` (lists of ``ndim`` whole numbers >= 8, at most ``MAX_CELLS`` in all) and
    ``extents`` (of finite pairs (lo, hi), hi > lo) become tuples, ``end_time`` and
    ``output_interval`` (default end_time / 50) finite numbers > 0 with a finite ratio,
    and ``cfl`` a number in (0, 1) (else a CflViolation).
    """
    for name in ("cells", "extents"):
        if not isinstance(getattr(cfg, name), (list, tuple)) or len(getattr(cfg, name)) != ndim:
            raise ConfigError(f"{name} must be a list of {ndim} entries, one per dimension")
    cfg.cells = tuple(check_count(n, "cells", 8, MAX_CELLS) for n in cfg.cells)
    if math.prod(cfg.cells) > MAX_CELLS:
        raise ConfigError(f"cells must hold at most {MAX_CELLS} cells, got {list(cfg.cells)}")
    cfg.extents = tuple(check_pair(e, "extents") for e in cfg.extents)
    if not all(-math.inf < a < b < math.inf for a, b in cfg.extents):
        raise ConfigError(f"need {ndim} finite extents [lo, hi] with hi > lo, got {cfg.extents}")
    cfg.end_time = check_float(cfg.end_time, "end_time")
    cfg.cfl = check_float(cfg.cfl, "cfl", hi=1.0, error=CflViolation)
    if cfg.output_interval is None:
        cfg.output_interval = cfg.end_time / 50.0
    cfg.output_interval = check_float(cfg.output_interval, "output_interval")
    if not math.isfinite(cfg.end_time / cfg.output_interval):
        raise ConfigError(f"output_interval {cfg.output_interval} is too small for the run")


def cell_grid(cfg) -> tuple[list[np.ndarray], list[float]]:
    """Cell centres and the cell width along each axis of a checked run config."""
    centers, widths = [], []
    for (lo, hi), n in zip(cfg.extents, cfg.cells):
        d = (hi - lo) / n
        centers.append(lo + d * (np.arange(n) + 0.5))
        widths.append(d)
    return centers, widths


class Recorder:
    """The record cadence of a run: a row at t = 0, one at the first step
    reaching each multiple of ``interval`` (within 1e-12), and one at the
    final step."""

    def __init__(self, interval: float):
        self.interval = interval
        self.next_t = 0.0
        self.rows: list[tuple] = []

    def offer(self, t: float, final: bool, row) -> None:
        """Keep the tuple ``row()`` if a record is due at time ``t``."""
        if final or t >= self.next_t - 1e-12:
            self.rows.append(row())
            self.next_t = self.interval * (math.floor((t + 1e-12) / self.interval) + 1)


def dump_json(doc: dict, path: str | Path | None = None) -> str:
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=True)
    if path is not None:
        Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")
    return text


def write_rows_csv(header: str, columns, path: str | Path) -> None:
    """CSV of equal-length 1D ``columns`` under ``header``, one row per index.

    Integer columns print as ``%d``, the others as ``%.17g`` (the rendering
    of ``fmt``, nan, inf and -0 included).
    """
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if np.issubdtype(c.dtype, np.integer) else "%.17g" for c in columns)
    parts = [header]
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = zip(*(c[start:start + CSV_BLOCK_ROWS].tolist() for c in columns))
        parts.append("\n".join(row % values for values in block))
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
