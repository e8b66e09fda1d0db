"""``python -m seqmine``: the ``seqmine`` command line."""

from .cli import entry

if __name__ == "__main__":
    entry()
