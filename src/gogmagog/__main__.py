import gc
import sys

gc.disable()  # cli.entry turns it on once the command is loaded: collecting while numpy imports frees little
try:
    from .cli import entry
    sys.exit(entry())
finally:
    gc.enable()
