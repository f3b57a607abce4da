"""Run a command and fail when its peak resident set size exceeds a bound.

    python tests/peak_rss.py MIB COMMAND [ARG ...]

The command's stdin and stdout pass through, so its output can be piped on;
the peak (the child's ``ru_maxrss``) goes to stderr.  The exit code is the
command's, or 1 when the command succeeded with a peak above MIB mebibytes,
or 2 with the usage line on stderr when MIB is not a number or no command
is given.
"""

import math
import resource
import subprocess
import sys


USAGE = "usage: python tests/peak_rss.py MIB COMMAND [ARG ...]"


def main(argv):
    try:
        bound = float(argv[0])
    except (IndexError, ValueError):
        bound = math.nan
    command = argv[1:]
    if math.isnan(bound) or not command:
        print(USAGE, file=sys.stderr)
        return 2
    code = subprocess.run(command).returncode
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak:.1f} MiB (bound {bound:g} MiB): {' '.join(command)}", file=sys.stderr)
    return 1 if code == 0 and peak > bound else code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
