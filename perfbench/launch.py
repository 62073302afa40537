"""Run one banditsim command as the ``banditsim`` console script does.

    python3 perfbench/launch.py [--setup-only] <command> <config> [options...]

The benchmark starts this file in a fresh interpreter for every command.  It
imports ``banditsim.cli``, parses the config file, notes the monotonic clock
(the end of set-up), then calls ``banditsim.cli.main`` with the arguments.
At exit it writes a JSON note to the path in ``PERFBENCH_MARK``: the set-up
end time and the peak resident set of this process and of the workers it
reaped.  With ``--setup-only`` it stops after set-up.  With
``PERFBENCH_TRACE_DIR`` set, it starts the span tracer before importing
banditsim and installs its wrappers before the command runs.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def _peak_rss_kb() -> int:
    """Largest resident set of this process (VmHWM) or of any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
                    break
    except OSError:
        pass
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main() -> int:
    args = sys.argv[1:]
    setup_only = args[:1] == ["--setup-only"]
    if setup_only:
        args = args[1:]
    tracer = None
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if trace_dir and not setup_only:
        import tracer as tracing

        tracer = tracing.start(trace_dir)
    start = time.perf_counter()
    import banditsim.cli as cli
    from banditsim.config import parse_config

    import_s = time.perf_counter() - start
    with open(args[1], encoding="utf-8") as fh:
        parse_config(fh.read())
    ready = time.monotonic()
    if tracer is not None:
        tracer.record("cli.import", import_s)
        tracing.install(tracer)
    code = 0
    try:
        if not setup_only:
            code = cli.main(args)
    finally:
        if tracer is not None:
            tracer.dump()
        with open(os.environ["PERFBENCH_MARK"], "w", encoding="utf-8") as fh:
            json.dump({"ready": ready, "peak_rss_kb": _peak_rss_kb()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
