"""``python -m tracelab``: the same command line as the ``tracelab`` script."""

import sys

from .cli import main

sys.exit(main())
