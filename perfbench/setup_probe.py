"""One fresh-process set-up: import mcqd, load and validate a config file,
build the engine.  Run from the repository root as

    python3 perfbench/setup_probe.py CONFIG.yaml

It prints one JSON line whose ``ready`` is ``time.monotonic()`` when the
engine is ready to evaluate; the parent subtracts its own clock reading
taken before it started this process.
"""
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

t0 = time.perf_counter()
from mcqd import runner  # noqa: E402
from mcqd.config import ExperimentConfig  # noqa: E402

t1 = time.perf_counter()
config = ExperimentConfig.from_file(sys.argv[1])
t2 = time.perf_counter()
runner.build_engine(config, config.seed)
t3 = time.perf_counter()
print(json.dumps({"ready": time.monotonic(), "import_s": t1 - t0,
                  "config.load_s": t2 - t1, "config.build_engine_s": t3 - t2}))
