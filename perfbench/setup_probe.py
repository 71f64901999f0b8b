"""Time a fresh interpreter's import of fnr plus one configuration parse.

    python3 perfbench/setup_probe.py verify

Imports ``fnr.cli`` from the checkout's ``src`` and runs the given command
with ``--N 0``, which the CLI parses, validates and rejects with exit code 2
before any operation starts.  Prints ``{"setup_s": ..., "exit": 2}``; exits
1 if the command was not rejected as expected.  ``run.py`` runs this several
times per measured run and reports the median as ``setup_s``.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402  (imports are part of the measured interval)
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    from fnr import cli

    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([sys.argv[1], "--N", "0"])
    elapsed = time.perf_counter() - START
    print(json.dumps({"setup_s": elapsed, "exit": code, "module": cli.__file__}))
    return 0 if code == 2 else 1


if __name__ == "__main__":
    sys.exit(main())
