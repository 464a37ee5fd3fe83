"""`python -m deltaflow`: the batch command line (see deltaflow.cli)."""

import sys

from .cli import main

sys.exit(main())
