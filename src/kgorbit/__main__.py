"""``python -m kgorbit --config run.cfg``: the command-line front door,
``kgorbit.cli.main``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
