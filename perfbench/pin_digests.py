"""Recompute the outputs pinned for the default seed into ``digests.json``.

    python3 perfbench/pin_digests.py

Run it only when a change is meant to alter simulated results; a
speed-only change must leave the file as it is.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.run import WORK, bootstrap  # noqa: E402


def main() -> None:
    bootstrap(WORK / "pin")
    from repro import fleet
    from repro.experiments.jobs import execute_job
    from repro.scenarios import Scenario
    from repro.scenarios.config import ExperimentConfig

    from perfbench.workloads import (
        DEFAULT_SEED, DIGEST_FILE, FLEET_SPEC, MIX3_FILE, POPULATION_JOBS,
        result_digest)

    config = ExperimentConfig.paper(seed=DEFAULT_SEED)
    mix3 = [result_digest(Scenario.from_dict(spec, config=config).run())
            for spec in json.loads(MIX3_FILE.read_text())]
    jobs = fleet.population_jobs(FLEET_SPEC, POPULATION_JOBS,
                                 seed=DEFAULT_SEED)
    population = {
        "population_digest": fleet.population_digest(
            job.scenario for job in jobs),
        "results": [result_digest(execute_job(job)) for job in jobs],
    }
    DIGEST_FILE.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "mix3": mix3, "population": population},
        indent=1) + "\n")
    shutil.rmtree(WORK / "pin", ignore_errors=True)
    print(f"wrote {DIGEST_FILE}")


if __name__ == "__main__":
    main()
