"""``python -m snf``: the command-line pipeline of :mod:`snf.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
