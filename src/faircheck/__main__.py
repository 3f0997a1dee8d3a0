"""``python -m faircheck``: the command line of faircheck.cli."""

from .cli import main

if __name__ == "__main__":
    main()
