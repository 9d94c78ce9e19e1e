"""Start a serving front end with the benchmark's span wrappers installed.

Usage::

    python perfbench/launch.py --spans DIR serve [serve options ...]

Installs :class:`spans.Recorder`'s patches, then calls the CLI entry point
``repro.__main__.main(["serve", ...])``, so the process topology is the
same as ``python -m repro serve ...``.  Sharded workers are forked from this
process and inherit the patches; each writes its own spans when it exits.
Every process writes ``DIR/spans-<pid>.json``.
"""

from __future__ import annotations

import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Recorder  # noqa: E402


def main(argv: "list[str]") -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    spans_dir, serve_argv = argv[1], argv[2:]
    os.makedirs(spans_dir, exist_ok=True)
    recorder = Recorder()

    def dump() -> None:
        recorder.dump(os.path.join(spans_dir, f"spans-{os.getpid()}.json"))

    import repro.api.sharded as sharded
    from repro.__main__ import main as repro_main

    worker_main = sharded._worker_main

    def traced_worker_main(*args, **kwargs):
        recorder.reset()  # drop the spans copied from the front end by fork
        try:
            worker_main(*args, **kwargs)
        finally:
            dump()

    def stop(signum, frame):
        raise KeyboardInterrupt  # the CLI's clean-exit path, so spans get written

    # The single-process front end installs no SIGTERM handler of its own
    # (the sharded one replaces this with an equivalent handler).
    signal.signal(signal.SIGTERM, stop)
    recorder.install()
    sharded._worker_main = traced_worker_main
    try:
        return repro_main(serve_argv)
    finally:
        sharded._worker_main = worker_main
        recorder.uninstall()
        dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
