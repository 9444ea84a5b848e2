"""Regenerate the benchmark's committed inputs with the package's CLI.

    python3 perfbench/make_inputs.py

Writes, under perfbench/inputs/:

- f15.json:  the dimension-15 source. It is the first solution of the 5 -> 15
  climb at the acceptance config (fiducial-find --dim 5 --seed 0, then
  climb --restarts 12 --max-iters 2000 --seed 0).
- sic195.json: the first solution of the refined 15 -> 195 climb from f15 at
  the acceptance config (climb --restarts 24 --seed 2, which the CLI routes to
  the refined search with 8000 iterations and a 9-term budget). It embeds
  f15 as its source. Only restart 7 of the 24 converges; the whole climb takes
  a few minutes.

Then prints the sha256 of both files; paste them into INPUT_DIGESTS in
perfbench/worker.py. Intermediate files go to perfbench/out/inputs/.
"""
import hashlib
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from sicladder import cli  # noqa: E402

STEPS = (
    ["fiducial-find", "--dim", "5", "--seed", "0", "--out", "f5.json"],
    ["climb", "--input", "f5.json", "--restarts", "12", "--max-iters", "2000",
     "--seed", "0", "--out", "climb15.json"],
    ["climb", "--input", "climb15-sic0.json", "--restarts", "24", "--seed", "2",
     "--out", "climb195.json"],
)
OUTPUTS = {"f15.json": "climb15-sic0.json", "sic195.json": "climb195-sic0.json"}


def main():
    work = HERE / "out" / "inputs"
    work.mkdir(parents=True, exist_ok=True)
    for argv in STEPS:
        argv = [str(work / a) if a.endswith(".json") else a for a in argv]
        print("sicladder " + " ".join(argv), flush=True)
        rc = cli.main(argv)
        if rc != 0:
            sys.exit(f"step failed with exit code {rc}")
    for name, produced in OUTPUTS.items():
        dest = HERE / "inputs" / name
        shutil.copyfile(work / produced, dest)
        print(f"{name} sha256 {hashlib.sha256(dest.read_bytes()).hexdigest()}")


if __name__ == "__main__":
    main()
