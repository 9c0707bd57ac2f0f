"""One timed ``rrdps`` CLI invocation in a fresh interpreter.

    python3 perfbench/invoke.py RESULT.json SPANS.npz|- -- CLI_ARGS...

Times the import of ``rrdps.cli`` (set-up) and the call to ``cli.main``
(wall), then writes them with process CPU time, peak RSS, the exit code
and the library versions to RESULT.json.  With a spans path the layers are
traced (see ``tracer.py``) and the spans are written there after ``main``
returns.  Only ``sys`` and ``time`` are imported before ``rrdps.cli``, so
set-up is what a CLI user pays.
"""

import sys
import time


def main() -> int:
    result_path, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: invoke.py RESULT.json SPANS.npz|- -- CLI_ARGS...")
    t0 = time.perf_counter()
    import rrdps.cli

    setup_s = time.perf_counter() - t0

    import json
    import platform
    import resource

    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    code = rrdps.cli.main(argv)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(spans_path)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(
            {
                "exit_code": code,
                "setup_s": setup_s,
                "wall_s": wall_s,
                "cpu_s": cpu_s,
                "peak_rss_mb": peak_rss_mb,
                "rrdps_file": rrdps.cli.__file__,
                "python": platform.python_version(),
                "numpy": sys.modules["numpy"].__version__,
                "scipy": sys.modules["scipy"].__version__,
            },
            f,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
