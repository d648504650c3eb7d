"""Set-up cost of a fresh process: import ``swipt_relay``, then load and
validate a config file. Prints one JSON object with the two times and the
time of a pure-Python reference loop run just before them.

    python3 setup_probe.py SRC_DIR CONFIG_JSON

Import speed follows the interpreter's own speed, not NumPy's, so set-up is
paired with a loop of plain Python arithmetic (best of three), which imports
nothing. On a 2-core shared virtual machine its time tracked the import time
with a correlation of 0.4 to 0.96 across fresh processes, where the NumPy
reference kernel reached at most 0.55.
"""

import json
import sys
import time


def python_ref() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += (i * 2654435761) % 1000003 / 7.0
    return time.perf_counter() - start


def main() -> None:
    src_dir, config_path = sys.argv[1], sys.argv[2]
    ref_s = min(python_ref() for _ in range(3))
    start = time.perf_counter()
    sys.path.insert(0, src_dir)
    import swipt_relay

    imported = time.perf_counter()
    swipt_relay.validate_config(swipt_relay.load_config(config_path))
    loaded = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "load_config_s": loaded - imported, "ref_s": ref_s}))


if __name__ == "__main__":
    main()
