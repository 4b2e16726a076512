"""Determinism check: CLI output must not depend on PYTHONHASHSEED.

    python3 perfbench/determinism.py

Runs the first ``JOBS`` entries of the matrix-sweep sample for seed ``SEED``
in two child processes, under PYTHONHASHSEED=0 and PYTHONHASHSEED=1, and compares
the digests of their outputs.  Each child also checks its outputs against the
goldens.  Exits 0 when the digests agree and every output matches.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HASH_SEEDS = ("0", "1")
JOBS = 24
SEED = 0


def child():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    wl = workloads.matrix_sweep(SEED)
    digest = hashlib.sha256()
    mismatches = 0
    for argv in wl.jobs[:JOBS]:
        workloads.clear_library_caches()
        rc, out = workloads.run_cli(argv)
        mismatches += wl.check(argv, (rc, out)) is not None
        digest.update(f"{' '.join(argv)}\t{rc}\t{out}\n".encode())
    print(digest.hexdigest(), mismatches)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    if p.parse_args().child:
        child()
        return 0
    digests = set()
    ok = True
    for hash_seed in HASH_SEEDS:
        proc = subprocess.run(
            [sys.executable, __file__, "--child"],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True, timeout=600, check=False)
        if proc.returncode != 0:
            print(f"PYTHONHASHSEED={hash_seed}: child failed\n{proc.stderr}")
            return 1
        digest, mismatches = proc.stdout.split()
        print(f"PYTHONHASHSEED={hash_seed}: {JOBS} jobs, digest "
              f"{digest[:16]}, {mismatches} golden mismatches")
        digests.add(digest)
        ok = ok and mismatches == "0"
    ok = ok and len(digests) == 1
    print("determinism: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
