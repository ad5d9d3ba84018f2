"""Command-line entry point: dataset generation, formula evolution, and
method evaluation as reproducible runs.

Every command writes a plain-text manifest next to its outputs recording
the resolved configuration, seed, paths, version, the seconds spent in
each of its stages, and wall-clock time.
With identical flags and seed the primary outputs are byte-identical.
The flags are the only settings: no environment variable is read, and
``--seed`` defaults to 0.  ``generate`` records its seed and nothing more,
since no value of the grid depends on it.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure
(its diagnostics follow on stderr as sorted key=value pairs).
"""

import argparse
import sys
import time
from pathlib import Path

from . import __version__
from .accelerators import METHODS
from .benchmark import (
    compare_to_reference,
    run_benchmark,
    write_grid_csv,
    write_totals_csv,
)
from .errors import (
    FormulaSyntaxError,
    InsufficientHistoryError,
    InvalidArgumentError,
    InvalidConfigError,
    NumericalFailureError,
)
from .evolution import (
    EvolutionConfig,
    evolve,
    formula_method,
    split_dataset,
    write_report,
)
from .sequences import load_dataset, write_dataset
from .transport import (
    DatasetConfig,
    dataset_metadata,
    generate_grid,
    width_text,
)
from .trees import parse

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok]


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok]


class _StageTimer:
    """Wall-clock seconds of a command's stages, in the order they ran,
    from the command's start."""

    def __init__(self):
        self.seconds = {}
        self.started = self._last = time.perf_counter()

    def lap(self, stage):
        """Record the seconds since the previous lap (or since the start)
        as ``stage``."""
        now = time.perf_counter()
        self.seconds[stage] = now - self._last
        self._last = now


def _setting_text(value):
    if isinstance(value, list):
        return ",".join(width_text(v) if isinstance(v, float) else str(v)
                        for v in value)
    return str(value)


def _write_manifest(directory, args, stages, **derived):
    """Write every flag of ``args`` and every ``derived`` value (which
    replaces a flag of its name), then the stage timings, to
    ``directory/manifest.txt``."""
    settings = {key: value for key, value in vars(args).items()
                if key not in ("command", "func")}
    settings.update(derived)
    lines = [f"command={args.command}", f"artifact_version={__version__}"]
    for key in sorted(settings):
        lines.append(f"{key}={_setting_text(settings[key])}")
    for stage, seconds in stages.seconds.items():
        lines.append(f"{stage}={seconds:.3f}")
    lines.append(f"duration_s={time.perf_counter() - stages.started:.3f}")
    Path(directory).mkdir(parents=True, exist_ok=True)
    (Path(directory) / "manifest.txt").write_text("\n".join(lines) + "\n")


def cmd_generate(args):
    stages = _StageTimer()
    if args.n_step < 1:
        raise InvalidArgumentError(f"--n-step must be >= 1, got {args.n_step}")
    config = DatasetConfig(
        c_min=args.c_min, c_max=args.c_max, c_count=args.c_count,
        widths=tuple(args.widths),
        orders=tuple(range(args.n_min, args.n_max + 1, args.n_step)),
    )
    sequences = generate_grid(config)
    stages.lap("solve_s")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_dataset(out, sequences, dataset_metadata(config, args.seed, __version__))
    stages.lap("write_s")
    _write_manifest(out.parent, args, stages, sequences=len(sequences))
    print(f"wrote {len(sequences)} sequences x {len(config.orders)} orders "
          f"to {out}")
    return EXIT_OK


def cmd_evolve(args):
    stages = _StageTimer()
    sequences = load_dataset(args.data)
    training, validation = split_dataset(sequences, args.split, args.seed)
    stages.lap("load_s")
    config = EvolutionConfig(
        population_size=args.pop,
        max_generations=args.gens,
        crossover_rate=args.cx,
        mutation_rate=args.mut,
        elite_count=args.elite,
        tournament_size=args.tourn,
        max_depth=args.depth,
        target_fitness=args.target,
        evaluation_orders=tuple(args.positions),
        rng_seed=args.seed,
    )
    report = evolve(config, training, validation)
    stages.lap("search_s")
    out = Path(args.out)
    write_report(report, out)
    stages.lap("write_s")
    _write_manifest(out, args, stages, train_sequences=len(training),
                    validation_sequences=len(validation))
    print(f"best formula after {report.generations} generations: "
          f"train fitness {report.train_fitness:.4f}, "
          f"validation fitness {report.validation_fitness:.4f}")
    print(f"outputs in {out}")
    return EXIT_OK


def cmd_evaluate(args):
    stages = _StageTimer()
    sequences = load_dataset(args.data)
    methods = {}
    for name in args.methods.split(","):
        name = name.strip()
        if name not in METHODS:
            raise InvalidArgumentError(
                f"unknown method {name!r}; choose from "
                f"{', '.join(sorted(METHODS))}"
            )
        if name == "evolved" and args.formula:
            methods[name] = formula_method(parse(Path(args.formula).read_text()))
        else:
            methods[name] = METHODS[name]
    if args.formula and "evolved" not in methods:
        raise InvalidArgumentError(
            "--formula replaces the evolved method, which --methods "
            f"{args.methods!r} does not include"
        )
    stages.lap("load_s")

    report = run_benchmark(sequences, methods, args.positions, bins=args.bins)
    stages.lap("score_s")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_totals_csv(report, out / "report.csv")
    write_grid_csv(report, out / "grid.csv")
    summary = compare_to_reference(report)
    (out / "compare.txt").write_text(summary)
    stages.lap("write_s")
    _write_manifest(out, args, stages, formula=args.formula or "builtin")
    print(summary, end="")
    print(f"outputs in {out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="txaccel",
        description="Center-flux convergence sequences for slab transport, "
                    "formula evolution, and accelerator benchmarking.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    gen = sub.add_parser("generate", formatter_class=fmt,
                         help="solve the (c, width) grid and write the "
                              "dataset CSV")
    gen.add_argument("--out", required=True, help="dataset CSV path")
    gen.add_argument("--seed", type=int, default=0,
                     help="recorded in the manifest and in .meta only; no "
                          "value of the grid depends on it")
    gen.add_argument("--c-min", type=float, default=0.001)
    gen.add_argument("--c-max", type=float, default=0.999)
    gen.add_argument("--c-count", type=int, default=40)
    gen.add_argument("--widths", type=_float_list, default=[1, 2, 5, 10, 20, 50],
                     help="slab widths in mean free paths, comma separated")
    gen.add_argument("--n-min", type=int, default=4)
    gen.add_argument("--n-max", type=int, default=52)
    gen.add_argument("--n-step", type=int, default=4)
    gen.set_defaults(func=cmd_generate)

    evo = sub.add_parser("evolve", formatter_class=fmt,
                         help="run the evolutionary search on a dataset")
    evo.add_argument("--data", required=True, help="dataset CSV from generate")
    evo.add_argument("--pop", type=int, default=40)
    evo.add_argument("--gens", type=int, default=200)
    evo.add_argument("--cx", type=float, default=0.70)
    evo.add_argument("--mut", type=float, default=0.30)
    evo.add_argument("--elite", type=int, default=2)
    evo.add_argument("--tourn", type=int, default=3)
    evo.add_argument("--depth", type=int, default=4)
    evo.add_argument("--target", type=float, default=0.75)
    evo.add_argument("--split", type=float, default=0.70)
    evo.add_argument("--positions", type=_int_list, default=[20, 28, 36, 44, 52])
    evo.add_argument("--seed", type=int, default=0)
    evo.add_argument("--out", required=True, help="output directory")
    evo.set_defaults(func=cmd_evolve)

    ev = sub.add_parser("evaluate", formatter_class=fmt,
                        help="benchmark accelerators on a dataset")
    ev.add_argument("--data", required=True)
    ev.add_argument("--formula", default=None,
                    help="formula file for the evolved method (default: "
                         "the built-in evolved accelerator)")
    ev.add_argument("--methods", default="aitken,wynn,evolved")
    ev.add_argument("--positions", type=_int_list, default=[20, 28, 36, 44, 52])
    ev.add_argument("--bins", type=int, default=10)
    ev.add_argument("--out", required=True, help="output directory")
    ev.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfigError, InvalidArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        print("diagnostics: " + " ".join(
            f"{key}={exc.diagnostics[key]}" for key in sorted(exc.diagnostics)),
            file=sys.stderr)
        return EXIT_NUMERICAL
    except (FileNotFoundError, FormulaSyntaxError, InsufficientHistoryError,
            OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
