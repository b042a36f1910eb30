"""Deterministic CSV/JSON artifact writers."""
import json
import math
import operator
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
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, (float, np.floating)):
        # JSON has no NaN or infinity: those are written as "nan", "inf", "-inf".
        obj = float(obj)
        return obj if math.isfinite(obj) else repr(obj)
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
    every double.  Rows are written per run of rows equal to the row above:
    the first row of each run is formatted, with one template for all of
    them, and its text is written once per row of the run, with no copy of
    the whole body in memory.  Rows are told apart by bit pattern, so -0.0
    and NaN payloads keep their own text, and every byte is that of
    formatting each value in turn.  A 2-d snapshot of 90,601 cells holds
    about 600 to 1,500 runs.  A table without repeated rows formats every
    value, also those that repeat within a column.
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
    table = np.stack([np.asarray(c, dtype=float) for c in columns], axis=1)
    bits = table.view(np.uint64)
    starts = np.ones(n, dtype=bool)
    starts[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    heads = np.flatnonzero(starts)
    # "\0", which no formatted double contains, only delimits the row texts.
    row = ",".join(["%.16e"] * len(columns)) + "\n\0"
    texts = (row * heads.size % tuple(table[heads].ravel().tolist())).split("\0")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
        f.writelines(map(operator.mul, texts, np.diff(heads, append=n).tolist()))


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
