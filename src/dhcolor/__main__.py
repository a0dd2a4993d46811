"""``python -m dhcolor``: the same CLI as the ``dhcolor`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
