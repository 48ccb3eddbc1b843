"""``python -m ratcoord``: the command line of :mod:`ratcoord.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
