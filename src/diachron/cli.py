"""Command-line entry point.

One JSON config drives every subcommand. A stage command reads earlier
artifacts from the output directory, and `run` hands them from stage to
stage in memory; the two give byte-identical results. Exit codes: 0 success, 2 config error, 3 input
error, 4 numeric failure, 5 I/O error. Set DIACHRON_LOG to debug, info,
warning (or warn), or error, in any case, to control logging. diachron logs
at INFO only, each stage's time and syngen's record count, so debug adds
nothing, and a call loads Python's `logging` only at those two levels.

`entry` is the one process entry: the `diachron` console script and
`python -m diachron.cli` both call it. In-process callers call `main`,
which returns the exit code.
"""

from __future__ import annotations

import os

# before anything imports numpy: no stage gains from BLAS threads, and idle
# OpenBLAS workers spin about 0.1 s of CPU after each import; a value already
# set in the environment wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import gc
import sys
from typing import NoReturn

from . import artifacts
from .errors import ConfigError, InputError, NumericError, decode, read_json_object
from .pipeline import FORMATS, STAGES, load_config, run_stages

LOG_LEVELS = ("debug", "info", "warning", "warn", "error")


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)  # not on macOS or Windows
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _add_pipeline_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", required=True, help="artifact directory")
    parser.add_argument("--threads", type=int, help="threads for the fit (default: the usable CPUs)")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument(
        "--format", choices=FORMATS, default=None, help="override input format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diachron",
        description="Diachronic co-word clustering and term diffusion analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGES:
        stage_parser = sub.add_parser(name, help=f"run the {name} stage")
        _add_pipeline_args(stage_parser)
    run_parser = sub.add_parser("run", help="run every stage in order")
    _add_pipeline_args(run_parser)
    syn = sub.add_parser("syngen", help="generate a synthetic corpus with ground truth")
    group = syn.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="named corpus shape")
    group.add_argument("--spec", help="JSON block specification file")
    syn.add_argument("--out", required=True, help="output directory")
    syn.add_argument("--seed", type=int, default=None, help="override spec seed")
    return parser


def _cmd_syngen(args, info) -> None:
    from . import syngen  # here, so that the pipeline commands do not load it
    from .corpus import save_corpus

    if args.preset:
        spec = syngen.preset(args.preset, seed=args.seed or 0)
    else:
        spec = decode(syngen.PlantSpec, read_json_object(args.spec, "spec"))
        if args.seed is not None:
            spec = spec._replace(seed=args.seed)
    records, truth = syngen.generate(spec)
    os.makedirs(args.out, exist_ok=True)
    save_corpus(records, os.path.join(args.out, artifacts.CORPUS))
    artifacts.write_json(truth, os.path.join(args.out, artifacts.TRUTH))
    if info:
        info("wrote %d records to %s", len(records), args.out)


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("DIACHRON_LOG", "warn").lower()
    if level not in LOG_LEVELS:
        print(
            "diachron: error: DIACHRON_LOG must be one of debug, info, warning "
            "(or warn), error",
            file=sys.stderr,
        )
        return 2
    info = None  # at warning and error, which show none of diachron's records
    if level in ("debug", "info"):
        import logging

        # basicConfig adds the stderr handler only while the root logger has none,
        # so the level is set on every call, on the program's own logger
        logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
        logger = logging.getLogger("diachron")
        logger.setLevel(level.upper())
        info = logger.info
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "syngen":
            _cmd_syngen(args, info)
        else:
            config = load_config(args.config)
            if args.seed is not None:
                config = config._replace(seed=args.seed)
            if args.format is not None:
                config = config._replace(format=args.format)
            threads = _usable_cpus() if args.threads is None else args.threads
            if threads < 1:
                raise ConfigError(f"--threads must be >= 1, got {threads}")
            names = config.stage_order() if args.command == "run" else [args.command]
            run_stages(names, config, args.out, threads=threads, log=info)
    except ConfigError as exc:
        print(f"diachron: config error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"diachron: input error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"diachron: numeric error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"diachron: i/o error: {exc}", file=sys.stderr)
        return 5
    return 0


def entry() -> NoReturn:
    """Run `main` on the command line and exit the process with its code.

    The freeze spares the interpreter's closing collections a walk over every
    object the call made; `sys.exit` still runs atexit and the log flush. It
    holds because every artifact is closed before `main` returns.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
