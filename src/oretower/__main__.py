"""``python -m oretower``: the command-line interface of ``oretower.cli``."""

from .cli import main

if __name__ == "__main__":
    main()
