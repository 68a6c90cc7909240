"""`python -m ldrpmnet ...` runs the command line, as the `ldrpmnet` script does."""

from .cli import main

if __name__ == "__main__":
    main()
