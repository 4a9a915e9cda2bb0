"""Run one ``tm`` command in this fresh interpreter, as the console script does.

Usage: python3 cli_child.py SRC_DIR SPANS_FILE|- TM_ARG...

``tm`` is the console script ``tmkit.cli:main``; this calls the same
function with ``SRC_DIR`` on the path, so no install is needed. With a
spans file, ``tmkit.cli.run`` and the library names ``tmkit.cli`` imports
are wrapped and their spans are written there on exit. The last line on
standard error is ``perfbench-inside SECONDS``: the time from before
``import tmkit.cli`` to the end of the command, the part of the wall time
that is not interpreter start-up and exit.
"""

import sys
import time


def main() -> None:
    started = time.perf_counter()
    try:
        run()
    finally:
        sys.stdout.flush()
        print(f"perfbench-inside {time.perf_counter() - started!r}", file=sys.stderr)


def run() -> None:
    src, spans_file, *tm_args = sys.argv[1:]
    sys.path.insert(0, src)
    sys.argv = ["tm", *tm_args]
    import tmkit.cli

    if spans_file == "-":
        tmkit.cli.main()
        return
    from tracing import Patches, Recorder, cli_targets

    recorder = Recorder()
    try:
        with Patches(recorder, cli_targets(tmkit.cli)):
            tmkit.cli.main()
    finally:
        sys.stdout.flush()
        recorder.dump(spans_file, {"argv": tm_args})


if __name__ == "__main__":
    main()
