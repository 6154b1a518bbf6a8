"""``python -m hotlane``: the ``hotlane`` console script."""

from .cli import main

raise SystemExit(main())
