"""Deterministic CSV/JSON artifact writers."""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and (obj != obj or obj in (float("inf"), float("-inf"))):
        return repr(obj)
    return obj


def write_json(path: Path, payload: dict, config: dict | None = None) -> None:
    body = {"schema_version": SCHEMA_VERSION}
    if config is not None:
        body["config"] = _jsonable(config)
    body.update(_jsonable(payload))
    text = json.dumps(body, sort_keys=True, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")


def write_csv(path: Path, header: list[str], columns: list[np.ndarray],
              config: dict | None = None) -> None:
    """Comma-separated columns with a header row and LF endings.

    Leading comment lines carry the schema version and the resolved config so
    every artifact is self-describing.
    """
    columns = [np.asarray(c) for c in columns]
    if len(header) != len(columns):
        raise ValueError("header and column counts differ")
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("columns must share one length")
    lines = [f"# schema_version={SCHEMA_VERSION}"]
    if config is not None:
        lines.append("# config=" + json.dumps(_jsonable(config), sort_keys=True,
                                              separators=(",", ":")))
    lines.append(",".join(header))
    # 17 significant digits in scientific notation round-trip every double;
    # one template for the whole table formats it in a single call.
    row = ",".join(["%.16e"] * len(columns)) + "\n"
    table = np.stack([np.asarray(c, dtype=float) for c in columns], axis=1)
    body = (row * n) % tuple(table.ravel().tolist())
    Path(path).write_text("\n".join(lines) + "\n" + body, encoding="utf-8",
                          newline="\n")


def write_field_csv(path: Path, field, config: dict | None = None) -> None:
    """Snapshot writer: (x, u) rows in 1-d, row-major flat values with a JSON
    sidecar describing the grid in 2-d."""
    path = Path(path)
    if field.dim == 1:
        write_csv(path, ["x", "u"], [field.axis_coords(0), field.values],
                  config=config)
        return
    write_csv(path, ["u"], [field.values.ravel(order="C")], config=config)
    sidecar = {"shape": list(field.shape), "spacing": field.spacing,
               "origin": list(field.origin), "time": field.time,
               "order": "row-major"}
    write_json(path.with_suffix(path.suffix + ".json"), sidecar, config=config)
