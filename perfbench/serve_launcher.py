"""Start ``repro serve`` with the layer wrappers installed (traced runs).

Usage: ``serve_launcher.py SUMMARY.json SPANS.npz [serve options...]``.
Installs :mod:`tracing`'s wrappers, hands off to the ``repro serve`` CLI
entry, and once the server has drained (SIGTERM) writes the per-layer
summary and the raw spans.
"""

from __future__ import annotations

import json
import sys

import tracing


def main() -> int:
    summary_path, spans_path, serve_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    unhooked = tracing.check_call_sites()

    from repro.api.cli import main as cli_main

    code = cli_main(["serve", *serve_args])
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump({"layers": tracer.summary(), "unhooked": unhooked}, fh)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
