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
    every artifact is self-describing.  Every value is written as a double in
    ``"%.16e"``: 17 significant digits in scientific notation round-trip
    every double.  Each distinct value of a column is formatted once, with the
    separator that follows it, and the texts are placed by index.  Values are
    told apart by bit pattern, so -0.0 and NaN payloads keep their own text,
    and every byte is that of formatting each value in turn.  A snapshot holds
    a few hundred distinct values in 90,601 cells; a column whose values are
    all distinct costs about a third more than formatting each value in turn.
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
    cells = np.empty((n, len(columns)), dtype=object)
    for j, column in enumerate(columns):
        bits, inverse = np.unique(np.asarray(column, dtype=float).view(np.uint64),
                                  return_inverse=True)
        # One template formats the distinct values in a single call; "\0",
        # which no formatted double contains, only delimits their texts.
        template = "%.16e" + ("\n" if j == len(columns) - 1 else ",") + "\0"
        texts = (template * bits.size % tuple(bits.view(float).tolist())).split("\0")
        cells[:, j] = np.array(texts, dtype=object)[inverse]
    body = "".join(cells.ravel().tolist())
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
