"""``python -m psl2kit``: the same command line as the ``psl2kit`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
