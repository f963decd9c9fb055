"""Compare two source trees' timeline subcommands on recorded timelines.

Usage::

    python benchmarks/replay_diff.py OLD_SRC NEW_SRC TIMELINE...

For each timeline it runs ``incidents``, ``slo``, ``health``, ``alerts``
and ``shards`` under both trees (``PYTHONPATH=<src> python -m repro``),
with ``--json``/``--prom`` where the subcommand has them, plus
``incidents``, ``slo`` and ``shards`` with ``--shard`` for every shard
the timeline's ``shard.window`` records name and for one it does not.
It reports each command whose exit code, stdout or exported files differ
between the trees (stderr is not compared) and exits 1 if any do.  A
change to the replay path that must not move its output runs this
against the parent commit's ``src`` on the quick timelines CI's pin
step writes.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: Subcommand -> its export options.
EXPORTS = {
    "incidents": ("--json", "--prom"),
    "slo": ("--prom",),
    "health": ("--prom",),
    "alerts": (),
    "shards": ("--json", "--prom"),
}

#: A shard no timeline names.
ABSENT = "shard999"


def window_shards(timeline):
    """Sorted shards that ``shard.window`` records name."""
    shards = set()
    with open(timeline, encoding="utf-8") as fh:
        for line in fh:
            if '"shard.window"' in line:
                shards.add(json.loads(line)["shard"])
    return sorted(shards)


def commands(timeline):
    for command in EXPORTS:
        yield [command]
    for shard in window_shards(timeline) + [ABSENT]:
        for command in ("incidents", "slo", "shards"):
            yield [command, "--shard", shard]


def run(src, timeline, argv, workdir):
    """(exit code, stdout, {option: exported bytes}) under one tree."""
    exports = {
        option: Path(workdir) / option.lstrip("-")
        for option in EXPORTS[argv[0]]
    }
    options = [str(part) for item in exports.items() for part in item]
    done = subprocess.run(
        [sys.executable, "-m", "repro", argv[0], str(timeline),
         *argv[1:], *options],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
    )
    out = done.stdout.replace(str(workdir).encode(), b"<dir>")
    files = {
        option: path.read_bytes() if path.exists() else None
        for option, path in exports.items()
    }
    return done.returncode, out, files


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    old, new, *timelines = (Path(arg).resolve() for arg in argv)
    differ = 0
    for timeline in timelines:
        compared = 0
        for command in commands(timeline):
            with tempfile.TemporaryDirectory() as workdir:
                before = run(old, timeline, command, workdir)
            with tempfile.TemporaryDirectory() as workdir:
                after = run(new, timeline, command, workdir)
            compared += 1
            if before != after:
                differ += 1
                print(f"DIFFERS: {timeline.name}: {' '.join(command)}")
        print(f"{timeline.name}: {compared} command(s) compared")
    print(f"{differ} command(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
