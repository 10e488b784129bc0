"""`python -m cavityqsl`: the command line of cavityqsl.cli."""

import sys

from .cli import cli_main

sys.exit(cli_main())
