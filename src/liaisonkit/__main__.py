"""``python -m liaisonkit``: the same command line as ``liaisonkit``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
