"""``python -m pointfuse``: the same entry point as the ``pointfuse`` script."""

import sys

from .cli import main

sys.exit(main())
