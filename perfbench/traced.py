"""Run one palg command with the tracer installed.

    python3 perfbench/traced.py TRACE_JSON palg-arguments...

Writes the tracer's counts and raw spans to TRACE_JSON and exits with the
command's exit code.  The time spent writing the file is reported as
``dump_s`` so the caller can leave it out of the traced wall time.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from palg import cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv: list) -> int:
    out, palg_args = Path(argv[0]), argv[1:]
    tracer = Tracer().install()
    try:
        code = cli.main(palg_args)
    finally:
        tracer.uninstall()
    started = time.perf_counter()
    payload = {"counts": tracer.counts(), "spans": tracer.spans()}
    out.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
    payload["counts"]["dump_s"] = time.perf_counter() - started
    out.with_suffix(".counts.json").write_text(json.dumps(payload["counts"]), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
