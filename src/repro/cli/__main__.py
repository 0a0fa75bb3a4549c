"""``python -m repro.cli``: the same entry point as the ``repro-io`` script."""

import sys

from repro.cli import main

sys.exit(main())
