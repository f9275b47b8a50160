"""`python -m jethier`: the command line, as the installed `jethier` script."""

import sys

from jethier.cli import main

if __name__ == "__main__":
    sys.exit(main())
