import atexit
import gc
import os
import sys


def run():
    """Entry point of ``python -m gogmagog`` and the installed script: the
    collector stays off while numpy imports, until ``cli.entry`` enables it.

    Once the command has returned its status, the process ends without the
    interpreter's teardown, which frees every object one by one and is most
    of what a short command costs after its work: the atexit handlers run,
    stdout and stderr are flushed (after a closed pipe, ``cli._run`` has
    already pointed stdout at the null device), then ``os._exit``.  A usage
    error or an unexpected exception leaves through the normal exit."""
    gc.disable()
    try:
        from .cli import entry

        status = entry()
    finally:
        gc.enable()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
