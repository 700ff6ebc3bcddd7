"""Deterministic JSON/CSV serialization for states, pairs, and results.

CSV output uses '.' decimals, 17 significant digits, and LF line
endings so that identical inputs reproduce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import FrontGeometry, PhysParams, State
from .errors import ConfigError
from .jumps import SidePair

CSV_HEADER = "t,mass,momX,momY,fluxBx,fluxBy,divNorm,frontAmp,energy"


def fmt(x: float) -> str:
    """17-significant-digit decimal rendering (lossless for float64)."""
    return format(float(x), ".17g")


def state_to_doc(u: State) -> dict:
    return {"h": u.h, "v": [float(u.v[0]), float(u.v[1])],
            "B": [float(u.B[0]), float(u.B[1])]}


def state_from_doc(doc: dict) -> State:
    check_keys(doc, ("h", "v", "B"), "state key")
    try:
        return State(h=doc["h"], v=doc["v"], B=doc["B"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed state document: {exc}") from exc


def side_pair_to_doc(sp: SidePair) -> dict:
    return {
        "plus": state_to_doc(sp.plus),
        "minus": state_to_doc(sp.minus),
        "front": {"slope": sp.front.slope, "speed": sp.front.speed},
        "g": sp.params.g,
    }


def side_pair_from_doc(doc: dict) -> SidePair:
    check_keys(doc, ("plus", "minus", "front", "g"), "side-pair key")
    front = check_keys(doc.get("front", {}), ("slope", "speed"), "front key")
    try:
        return SidePair(
            plus=state_from_doc(doc["plus"]),
            minus=state_from_doc(doc["minus"]),
            front=FrontGeometry(**front),
            params=PhysParams(g=doc.get("g", 1.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed side-pair document: {exc}") from exc


def load_json(path: str | Path) -> dict:
    """The JSON object in ``path``; any other top-level value is a ConfigError."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"no such file: {p}")
    try:
        with open(p, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {p}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{p}: top level must be a JSON object, got {type(doc).__name__}")
    return doc


def check_keys(doc, names: tuple[str, ...], what: str = "config key") -> dict:
    """``doc`` itself if it is an object whose keys all lie in ``names``, else a ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError(f"expected an object of {what}s, got {type(doc).__name__}")
    for key in doc:
        if key not in names:
            raise ConfigError(f"unknown {what} {key!r}; expected one of {names}")
    return doc


def config_kwargs(cls, doc: dict, allowed: tuple[str, ...] = ()) -> dict:
    """Keyword arguments for the dataclass ``cls`` from a config document.

    A key that is neither a field of ``cls`` nor in ``allowed``, and a
    field without a default that the document lacks, is a ConfigError
    naming the key; omitted fields keep their dataclass default.
    """
    fields = dataclasses.fields(cls)
    names = tuple(f.name for f in fields)
    check_keys(doc, names + allowed)
    for f in fields:
        if f.name not in doc and f.default is dataclasses.MISSING \
                and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing config key {f.name!r}")
    return {name: doc[name] for name in names if name in doc}


def dump_json(doc: dict, path: str | Path | None = None) -> str:
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=True)
    if path is not None:
        Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")
    return text


def write_timeseries_csv(result, path: str | Path) -> None:
    """Time series of a simulation: one fixed header, one row per record."""
    lines = [CSV_HEADER]
    for row in result.csv_rows():
        lines.append(",".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_snapshot_csv(result, path: str | Path) -> None:
    """Final conserved fields as a flat grid: x[,y],h,momX,momY,fluxBx,fluxBy."""
    q = result.snapshot
    grid = result.grid
    lines = []
    if q.ndim == 2:
        lines.append("x,h,momX,momY,fluxBx,fluxBy")
        for i, xv in enumerate(grid["x"]):
            lines.append(",".join(fmt(v) for v in (xv, *q[:, i])))
    else:
        lines.append("x,y,h,momX,momY,fluxBx,fluxBy")
        for i, xv in enumerate(grid["x"]):
            for j, yv in enumerate(grid["y"]):
                lines.append(",".join(fmt(v) for v in (xv, yv, *q[:, i, j])))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_rows_csv(header: str, rows: Iterable[Iterable[float]], path: str | Path) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(fmt(v) if isinstance(v, (int, float, np.floating)) else str(v)
                              for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
