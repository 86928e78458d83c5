"""``python -m archdelta``: the command line of :mod:`archdelta.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
