"""``python -m aodvcheck``: the command-line front end (see ``cli``)."""
import sys

from .cli import main

sys.exit(main())
