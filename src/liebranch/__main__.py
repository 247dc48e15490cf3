"""``python -m liebranch``: the command line tool, run from a checkout
without installing it (``PYTHONPATH=src python -m liebranch ...``)."""

import sys

from . import cli

sys.exit(cli.main())
