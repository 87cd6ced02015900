"""``python -m cheaptalk``: the command-line interface."""
from .cli import entry

if __name__ == "__main__":
    raise SystemExit(entry())
