import gc
import sys


def run():
    """Entry point of ``python -m gogmagog`` and the installed script: the
    collector stays off while numpy imports, until ``cli.entry`` enables it."""
    gc.disable()
    try:
        from .cli import entry

        return entry()
    finally:
        gc.enable()


if __name__ == "__main__":
    sys.exit(run())
