"""The command line: ``python -m powerindex`` and the ``powerindex`` script."""

import os
import sys

# numpy's BLAS starts its worker pool as numpy loads, and the package makes
# no BLAS call, so the CLI asks for one thread before it imports numpy. A
# value the caller has set stays.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> None:
    for name in THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    from .cli import run_cli

    # An identifier may hold a lone surrogate, which no encoding can print:
    # the console shows it escaped. On UTF-8, no other character changes.
    sys.stdout.reconfigure(errors="backslashreplace")
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
