"""``python -m tapkit`` and the ``tapkit`` console script."""

import os
import sys

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    """Run the CLI with one BLAS thread unless the caller chose a count.

    On this package's small matrices a second thread costs CPU time for
    little or no wall time.  The variables are set before NumPy loads,
    which reads them, and only when none of them is set already.
    """
    if not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    from .cli import main as run_cli

    return run_cli(argv)


if __name__ == "__main__":
    sys.exit(main())
