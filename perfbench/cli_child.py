"""Run one nomsig CLI command with the benchmark's tracer installed.

Usage: python cli_child.py SPANS_OUT COMMAND [ARGS...]

The traced ``cli`` workload starts this instead of ``python -m nomsig.cli``.
The wrappers are installed after ``nomsig.cli`` is imported and before its
``main`` runs; the spans and counts are written to SPANS_OUT as JSON when
the command ends, and the command's exit code is passed through.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import nomsig.cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> None:
    out, args = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    code = 0
    try:
        nomsig.cli.main(args=args, prog_name="nomsig")
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.op = None
        tracer.uninstall()
        out.write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
    sys.exit(code)


if __name__ == "__main__":
    main()
