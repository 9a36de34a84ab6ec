"""Runs the `jackratio` command in a benchmark subprocess.

Equivalent to the installed console script (`jackratio.cli:main`), so the
benchmark needs no install.  When PERFBENCH_TRACE_FILE is set the run is
traced, its spans parented under PERFBENCH_PARENT_SPAN, and written there.
"""

import os
import sys

import jackratio.cli


def main() -> int:
    path = os.environ.get("PERFBENCH_TRACE_FILE")
    if not path:
        return jackratio.cli.main(sys.argv[1:])
    import tracer as tracing
    trc = tracing.Tracer(root_parent=int(os.environ["PERFBENCH_PARENT_SPAN"]))
    trc.install()
    try:
        return jackratio.cli.main(sys.argv[1:])
    finally:
        trc.uninstall()
        trc.write(path)


if __name__ == "__main__":
    sys.exit(main())
