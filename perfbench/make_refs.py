"""Regenerate the reference outputs under ``ref/``.

    python3 perfbench/make_refs.py [SEED ...]

keyrate and sweep ignore the seed and get one reference each; simulate
and oracle get one per SEED (default 1 2 3).  Outputs are made with the
same pinned environment as the benchmark.  Regenerate only when a change
to the program is meant to change its output, and record that change.
"""

import gzip
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def main(seeds: list[int]) -> int:
    env = run.pinned_env()
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        work = Path(tmp)
        for workload, (cmd, _) in run.WORKLOADS.items():
            for seed in seeds if cmd in ("simulate", "oracle") else [0]:
                job = run.Job(workload, seed, work)
                out = work / "out"
                subprocess.run(
                    [sys.executable, "-m", "rrdps.cli", *job.argv(out)],
                    cwd=work, env=env, check=True, stdout=subprocess.DEVNULL,
                )
                job.ref_path.parent.mkdir(parents=True, exist_ok=True)
                if job.ref_path.suffix == ".gz":
                    job.ref_path.write_bytes(gzip.compress(out.read_bytes(), mtime=0))
                else:
                    shutil.copyfile(out, job.ref_path)
                print(f"wrote {job.ref_path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or [1, 2, 3]))
