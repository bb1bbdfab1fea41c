"""``python -m negocc``: the ``negocc`` command."""

from .cli import main

main()
