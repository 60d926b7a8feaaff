"""Entry point for ``python -m cwmark``."""

from .cli import _entry

if __name__ == "__main__":
    _entry()
