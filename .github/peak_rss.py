"""Run setvote commands in one process, in order, and fail at the first that
exits non-zero or leaves the process's peak RSS above a ceiling.

    python .github/peak_rss.py CEILING_MB "COMMAND ARGS" ["COMMAND ARGS" ...]

Each command is a `setvote` command line without the program name, split as
a shell splits it. The peak RSS is read after each command, so it covers
every command run so far.
"""

import resource
import shlex
import sys

from setvote import cli


def main(argv: list[str]) -> int | str:
    ceiling, *commands = argv
    for command in commands:
        status = cli.main(shlex.split(command))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"setvote {command}: exit {status}, peak RSS {peak_mb:.1f} MB", file=sys.stderr)
        if status:
            return status
        if peak_mb > float(ceiling):
            return f"peak RSS {peak_mb:.1f} MB is above {ceiling} MB"
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
