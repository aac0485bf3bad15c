"""Entry point for ``python -m skyline``."""
from .cli import main

if __name__ == "__main__":
    main()
