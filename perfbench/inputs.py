"""The lakes every workload serves, generated once per checkout.

The lakes are the paper's two synthetic benchmarks at the CLI's
default generator seed: SB as CSV files plus an SB snapshot with the
LCC ranking pre-warmed, and TUS-small as CSV files.  They are fixed
across runs; ``--seed`` varies only the op sequences replayed against
them.  Files are written into a staging directory and renamed into
place, so an interrupted first run never leaves a half-written lake.
"""

import os
import shutil
from dataclasses import dataclass
from pathlib import Path

from repro.api import DetectRequest, HomographIndex
from repro.bench.synthetic import SBConfig, generate_sb
from repro.bench.tus import TUSConfig, generate_tus
from repro.datalake.csv_io import dump_lake, load_lake

LAKE_SEED = 0

#: The ranking the SB snapshot ships pre-warmed.
WARM_REQUEST = DetectRequest(measure="lcc")


@dataclass(frozen=True)
class Inputs:
    sb_csv: Path
    sb_snapshot: Path
    tus_csv: Path


def _publish(target: Path, build) -> None:
    if target.exists():
        return
    staging = target.with_name(f"{target.name}.staging-{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    build(staging)
    try:
        staging.rename(target)
    except OSError:
        # Another run published it first; its copy is identical.
        shutil.rmtree(staging, ignore_errors=True)
        if not target.exists():
            raise


def _sb_snapshot(sb_csv: Path):
    def build(staging: Path) -> None:
        with HomographIndex(load_lake(sb_csv)) as index:
            index.detect(WARM_REQUEST)
            index.save(staging)
    return build


def ensure_inputs(cache: Path) -> Inputs:
    """Generate (once) and return the benchmark lakes under ``cache``."""
    cache.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(cache / "sb-csv", cache / "sb-snapshot",
                    cache / "tus-csv")
    _publish(inputs.sb_csv, lambda d: dump_lake(
        generate_sb(SBConfig(seed=LAKE_SEED)).lake, str(d)))
    _publish(inputs.tus_csv, lambda d: dump_lake(
        generate_tus(TUSConfig.small(seed=LAKE_SEED)).lake, str(d)))
    _publish(inputs.sb_snapshot, _sb_snapshot(inputs.sb_csv))
    return inputs
