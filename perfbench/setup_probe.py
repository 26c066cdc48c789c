"""One set-up sample, in a fresh interpreter.

Times the import of magiclbm (its CLI module, which pulls in the whole
package and numpy) and the turning of each INI text into a run
configuration, and into an experiment where the command builds one.
Prints one JSON line: {"import_s": ..., "config_s": ...}.

Usage: python3 setup_probe.py BUILDS:PATH [BUILDS:PATH ...]
where BUILDS is 1 when the command builds an experiment, else 0.
"""

import json
import sys
import time


def main(items):
    texts = []
    for item in items:
        builds, _, path = item.partition(":")
        with open(path, encoding="utf-8") as handle:
            texts.append((builds == "1", path, handle.read()))
    start = time.perf_counter()
    import magiclbm.cli  # noqa: F401  (the import is what is timed)
    from magiclbm.config import build_experiment, parse_config

    imported = time.perf_counter()
    for builds, path, text in texts:
        cfg = parse_config(text, source=path)
        if builds:
            build_experiment(cfg)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "config_s": done - imported}))


if __name__ == "__main__":
    main(sys.argv[1:])
