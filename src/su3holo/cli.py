"""Command-line entry point: ``main`` loads the front end, ``su3holo.parser``,
on its first call, so importing this module loads nothing else."""
import sys


def main(argv=None) -> int:
    from .parser import run

    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
