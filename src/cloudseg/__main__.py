"""Process entry point: ``python -m cloudseg`` and the ``cloudseg`` script."""

import os
import sys


def main() -> None:
    # No command calls BLAS, so OpenBLAS's worker threads only cost start-up
    # time. The default must be set before numpy is first imported; a value
    # the caller set is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    sys.exit(cli_main())


if __name__ == "__main__":
    main()
