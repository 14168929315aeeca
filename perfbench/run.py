"""tapkit benchmark: run one workload through ``tapkit.cli.main`` and report.

    python3 perfbench/run.py --workload train-easy --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20     # every workload

Run it from the root of a checkout: it imports ``tapkit`` from ``src/``
there and exits 2 without a result when that package is missing.  Scratch
files (corpora, checkpoints, predictions, spans) go to
``.perfbench/<workload>/`` in the checkout.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  The line before it
records the environment: BLAS threads as the loaded OpenBLAS reports them
(null if it cannot be asked), cores, Python, NumPy and OpenBLAS versions.
The exit code is 0 only when every check passed.
"""

import os

# Pin BLAS to one thread before anything imports NumPy: the matrices are
# tiny, and a second BLAS thread makes training slower and noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-easy", "train-long", "parse-eval", "baselines")
EXIT_NO_PROGRAM = 2
RUN_TIMEOUT_S = 180


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test corpora and epochs; quality references "
                             "and floors are not checked")
    return parser.parse_args(argv)


def import_tapkit():
    """Import ``tapkit`` from this checkout's ``src/``; None if it is not there."""
    src = ROOT / "src"
    if not (src / "tapkit" / "__init__.py").is_file():
        print(f"error: no tapkit package under {src}", file=sys.stderr)
        return None
    sys.path.insert(0, str(src))
    import tapkit
    if Path(tapkit.__file__).resolve().parent != (src / "tapkit").resolve():
        print(f"error: imported tapkit from {tapkit.__file__}, not {src}",
              file=sys.stderr)
        return None
    return tapkit


def environment() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "openblas_threads": _openblas_threads(np),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _openblas_threads(np):
    """Thread count the loaded OpenBLAS reports; None if it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_one(args) -> int:
    if import_tapkit() is None:
        return EXIT_NO_PROGRAM
    import workloads

    reference = json.loads((HERE / "reference.json").read_text())
    workdir = ROOT / ".perfbench" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    scale = workloads.TINY if args.tiny else workloads.FULL
    bench = workloads.Bench(workdir, args.seed, scale, reference)
    result = workloads.run(args.workload, bench, args.seconds, bool(args.trace))
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    if not (ROOT / "src" / "tapkit" / "__init__.py").is_file():
        print(f"error: no tapkit package under {ROOT / 'src'}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        try:
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{name}: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
            combined["correct"] = False
            combined["failed"] += 1
            continue
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: exit {proc.returncode} without a result", file=sys.stderr)
            combined["correct"] = False
            combined["failed"] += 1
            continue
        print("\n".join(lines[:-1]))
        for metric, entry in result["metrics"].items():
            print(f"{name:10s} {metric:28s} {entry['value']:14.6g} {entry['unit']}")
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
