"""Record the key outputs every benchmark variant produces at this commit.

    python3 perfbench/record_references.py

Run from the root of a source checkout, at the commit whose results the
benchmark's ``result_dev`` is measured against.  Writes ``references.npz``
(key outputs per workload and variant) and ``references.json`` (a digest of
each variant's whole ``--out`` directory).  Refuses to record outputs that
fail the correctness gate or differ between two invocations.
"""
from __future__ import annotations

import json
import shutil
import sys

import numpy as np

from run import DIGESTS, REFERENCES, ROOT, invoke
from workloads import VARIANTS, WORKLOADS, digest, draw


def main() -> int:
    arrays, digests = {}, {}
    work = ROOT / ".perfbench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for wl in WORKLOADS.values():
            for variant in range(VARIANTS):
                config = work / "config.ini"
                config.write_text(wl.config(draw(wl.name, variant)), encoding="utf-8")
                runs = [invoke(work, wl.command, config, f"{wl.name}-{variant}-{k}",
                               trace=False) for k in range(2)]
                if any(r["code"] != 0 for r in runs):
                    print(f"{wl.name} variant {variant} failed:\n{runs[0]['stderr']}",
                          file=sys.stderr)
                    return 1
                d = digest(runs[0]["out"])
                if d != digest(runs[1]["out"]):
                    print(f"{wl.name} variant {variant}: outputs differ between runs",
                          file=sys.stderr)
                    return 1
                problems, values = wl.check(runs[0]["out"], ROOT)
                if problems:
                    print(f"{wl.name} variant {variant}: {problems}", file=sys.stderr)
                    return 1
                prefix = f"{wl.name}.{variant}"
                digests[prefix] = d
                for key, value in values.items():
                    arrays[f"{prefix}.{key}"] = value
                print(f"{prefix}: {runs[0]['wall_s']:.2f} s, digest {d[:12]}")
                for r in runs:
                    shutil.rmtree(r["out"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    np.savez_compressed(REFERENCES, **arrays)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
