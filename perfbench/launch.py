"""Run one satspread CLI invocation in this process and record when things happened.

    python3 perfbench/launch.py <marks.json> <trace 0|1> <subcommand> [cli args...]

The import of ``satspread.cli`` and the call of ``main`` are what a user's
``satspread <subcommand>`` does.  With trace 0 the only instrumentation is a
first-call hook on the solve entry points of the CLI, which marks the end of
set-up (import, config load, initial field).  With trace 1 every public
function of the traced layers is wrapped (see ``spans.py``).  Marks and spans
go to ``<marks.json>`` after ``main`` returns, never into the ``--out``
directory.  Times are ``time.perf_counter`` readings, which on Linux come
from CLOCK_MONOTONIC and so compare across processes.
"""
import json
import resource
import sys
import time

#: CLI-level names whose first call ends set-up: ``run`` for simulate,
#: ``front_profile`` for speed and wave, the study for converge.
SOLVE_ENTRY = ("run", "front_profile", "gamma_convergence_study")


def _hook_first_solve(cli, marks: dict) -> None:
    for name in SOLVE_ENTRY:
        fn = getattr(cli, name)

        def first(*args, _fn=fn, **kwargs):
            marks.setdefault("first_solve", time.perf_counter())
            return _fn(*args, **kwargs)

        setattr(cli, name, first)


def main() -> int:
    marks_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    marks: dict = {}
    start = time.perf_counter()
    import satspread.cli as cli
    marks["import_s"] = time.perf_counter() - start
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.add("cli.import", start, start + marks["import_s"])
        tracer.install()
    else:
        _hook_first_solve(cli, marks)
    code = cli.main(argv)
    marks["main_end"] = time.perf_counter()
    marks["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        marks["spans"] = tracer.spans
    with open(marks_path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
