"""Run the command-line front end: `python -m modelk <command> ...`."""

import sys

from .cli import main

sys.exit(main())
