"""``python -m e6grad``: the same command line as the ``e6grad`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
