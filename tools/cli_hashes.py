"""Hash what the ``tapkit`` CLI writes, to show that a change keeps it byte-identical.

    python3 tools/cli_hashes.py            # the tapkit under this checkout's src/
    python3 tools/cli_hashes.py OTHER/src  # the tapkit under another checkout

Runs in process, through ``tapkit.cli.main``:

- the command sequence of acceptance criterion 8 at its fixed seeds (synth,
  train, parse, eval, baseline kmeans and tcn, stats, ablate,
  compare-sampling, patterns), hashing every file it writes and every
  command's stdout;
- a 2-epoch ``train`` and ``baseline tcn`` at the default model dims on the
  acceptance "easy" corpus at seed 0, hashed the same way: criterion 8 runs
  tiny dims only, and the weights' memory layout can change the bits of a
  matrix product at full size;
- ``--version`` and every command's ``--help``;
- the usage errors of ``tests/test_cli.py::TestHelpAndUsage`` and its help
  after an unknown option, hashing the stdout, the stderr and the exit code
  of each.

Prints one ``sha256  name`` line per item, sorted by name, so the output of
two checkouts can be compared with ``diff``.  Help is formatted 80 columns
wide, and BLAS runs on one thread.  Exits 1 if a step of the sequence fails.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
os.environ["COLUMNS"] = "80"
os.environ.pop("TAPKIT_DATA_DIR", None)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# acceptance criterion 8
SYNTH = {"num_prototypes": 3, "feature_dim": 8, "num_actions": 2,
         "instances_per_action": 8, "seg_len_range": [4, 8],
         "transition_width": 1, "noise_sigma": 0.1, "seed": 9}
TINY_DIMS = ["--patterns", "6", "--pattern-dim", "8", "--attn-dim", "4",
             "--value-dim", "4", "--hidden-dim", "12"]
# the acceptance "easy" corpus of criterion 5, at its seed
EASY_SYNTH = {"num_prototypes": 4, "feature_dim": 64, "num_actions": 4,
              "instances_per_action": 40, "seg_len_range": [8, 20],
              "transition_width": 2, "noise_sigma": 0.1, "seed": 0}

COMMANDS = ["synth", "train", "parse", "eval", "baseline", "baseline kmeans",
            "baseline tcn", "stats", "ablate", "compare-sampling", "patterns"]

# the inputs of TestHelpAndUsage's usage-error tests and its help after an
# unknown option
USAGE_ERRORS = [
    [], ["frob"], ["--frobnicate"], ["synth", "--out", "d", "--frobnicate"],
    ["eval", "--pred", "p", "--frobnicate"],
    ["baseline", "kmeans", "--out", "o", "--frobnicate", "3"],
    ["--frobnicate", "eval", "--pred", "p"],
    ["baseline", "--frobnicate", "kmeans", "--out", "o", "--z"],
    ["ablate", "--out", "a.csv", "--sps-units", "4"],
    ["--frobnicate", "synth", "-h"], ["eval"], ["baseline", "kmeans"], ["eval", "--pred", "p.jsonl", "--mode", "bogus"],
]


def call(main, argv):
    """``(exit code, stdout, stderr)`` of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_steps(main, base: Path, steps, put, prefix: str = "") -> bool:
    """Run ``steps`` and hash each one's stdout, then every file under ``base``."""
    for tag, argv in steps:
        code, out, err = call(main, argv)
        if code != 0:
            print(f"error: step {prefix}{tag} exited {code}: {err}", file=sys.stderr)
            return False
        put(f"stdout {prefix}{tag}", out)
    for path in sorted(p for p in base.rglob("*") if p.is_file()):
        put(f"file {prefix}{path.relative_to(base).as_posix()}", path.read_bytes())
    return True


def criterion_8(main, tmp: Path, put) -> bool:
    config = tmp / "synth.json"
    config.write_text(json.dumps(SYNTH))
    base = tmp / "run"
    data, model = base / "data", base / "model.tpsr"
    steps = [
        ("synth", ["synth", "--config", config, "--out", data]),
        ("train", ["train", "--data", data, "--model-out", model, *TINY_DIMS,
                   "--epochs", "6", "--lr", "0.02", "--seed", "3"]),
        ("parse", ["parse", "--data", data, "--model", model,
                   "--out", base / "pred.jsonl", "--seed", "3"]),
        ("eval", ["eval", "--pred", base / "pred.jsonl", "--gt", data,
                  "--out", base / "report.csv"]),
        ("kmeans", ["baseline", "kmeans", "--data", data, "--k", "3",
                    "--out", base / "kmeans.jsonl", "--seed", "3"]),
        ("tcn", ["baseline", "tcn", "--data", data, "--out", base / "tcn.jsonl",
                 "--epochs", "3", "--seed", "3"]),
        ("stats", ["stats", "--data", data]),
        ("ablate", ["ablate", "--data", data, "--out", base / "abl.csv", *TINY_DIMS,
                    "--epochs", "2", "--seed", "3"]),
        ("sampling", ["compare-sampling", "--data", data, "--segments", "2",
                      "--out", base / "samp.csv", "--seed", "3"]),
        ("patterns", ["patterns", "--data", data, "--model", model,
                      "--pattern", "1", "--top", "5", "--seed", "3"]),
    ]
    return run_steps(main, base, steps, put)


def default_dims(main, tmp: Path, put) -> bool:
    config = tmp / "easy.json"
    config.write_text(json.dumps(EASY_SYNTH))
    base = tmp / "easy"
    base.mkdir()
    data = tmp / "easy-data"  # only what training writes is hashed
    steps = [
        ("synth", ["synth", "--config", config, "--out", data]),
        ("train", ["train", "--data", data, "--model-out", base / "model.tpsr",
                   "--epochs", "2", "--lr", "0.02", "--seed", "0"]),
        ("tcn", ["baseline", "tcn", "--data", data, "--out", base / "tcn.jsonl",
                 "--epochs", "2", "--seed", "0"]),
    ]
    return run_steps(main, base, steps, put, prefix="easy ")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src.resolve()))
    from tapkit.cli import main as tapkit_main

    lines = {}

    def put(name, payload):
        if isinstance(payload, str):
            payload = payload.encode("utf-8")
        lines[name] = hashlib.sha256(payload).hexdigest()

    with tempfile.TemporaryDirectory() as tmp:
        ok = criterion_8(tapkit_main, Path(tmp), put)
        ok = default_dims(tapkit_main, Path(tmp), put) and ok
    for argv_ in [["--version"], ["--help"],
                  *([*command.split(), "--help"] for command in COMMANDS),
                  *USAGE_ERRORS]:
        code, out, err = call(tapkit_main, argv_)
        name = "tapkit " + " ".join(argv_)
        put(f"{name} :stdout", out)
        put(f"{name} :stderr", err)
        put(f"{name} :code", str(code))
    for name in sorted(lines):
        print(f"{lines[name]}  {name}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
