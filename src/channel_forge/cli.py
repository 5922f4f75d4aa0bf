"""Command-line interface: build/convert/compare channels, synthesize
dilations, emit figure sweeps, and run network scenarios.

Exit codes: 0 success, 1 numerical or optimizer failure, 2 configuration
error. Verbosity via the CHANNEL_FORGE_LOG environment variable.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import logging
import math
import os
import sys
from collections import Counter
from json.encoder import encode_basestring_ascii

import numpy as np

from . import figures as fig
from .channels import (
    Channel,
    ChannelError,
    channel_from_dict,
    channel_to_dict,
    choi_fidelity,
    random_channel,
    validate_cptp,
    validate_density,
)
from .circuits import circuit_from_dict, simulate_detailed
from .dilation import extended_qudit_routine, routine_to_dict, stinespring_dilate
from .linalg import decode_complex, encode_complex
from .netsim import run_scenario, scenario_from_dict
from .noise import CHANNEL_PARAMS, channel_by_name
from .tailor import OptimizerConfig, run_tailoring_job

log = logging.getLogger("channel_forge")

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2


def _setup_logging() -> None:
    """Log at the level CHANNEL_FORGE_LOG names (default WARNING); ChannelError
    for a value that is not a level name."""
    value = os.environ.get("CHANNEL_FORGE_LOG", "WARNING")
    level = logging.getLevelName(value.upper())
    if not isinstance(level, int):
        raise ChannelError(f"CHANNEL_FORGE_LOG={value!r} is not a logging level name "
                           "(DEBUG, INFO, WARNING, ERROR or CRITICAL)")
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _output(out: str | None):
    """The file ``out`` opened for writing, or stdout (left open) when it is not given."""
    return open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout)


def _json_key(key) -> str:
    """A dict key and its ``": "`` as ``json.dumps`` writes them (non-str keys as JSON text)."""
    if not isinstance(key, str):
        if not (isinstance(key, (int, float)) or key is None):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = json.dumps(key)
    return encode_basestring_ascii(key) + ": "


def _json_scalar(value) -> str:
    """A non-container value as ``json.dumps(value, default=float)`` writes it."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value, default=float)  # None, bools, NaN, +-inf, numpy scalars


def _write_json(value, write, nl: str, step: str, sep: str) -> None:
    """Write ``value`` chunk by chunk; ``nl`` is the line break and indentation
    of its level, ``step`` one more level of it ("" both when compact)."""
    if isinstance(value, (list, tuple)) and value:
        inner = nl + step
        if type(value[0]) is float:  # a matrix row: one join of float reprs
            try:
                text = (sep + inner).join(map(float.__repr__, value))
            except TypeError:  # an item is not a float
                pass
            else:
                if "n" not in text:  # no "nan" or "inf", which JSON spells NaN/Infinity
                    write("[" + inner + text + nl + "]")
                    return
        write("[")
        for i, item in enumerate(value):
            write(sep + inner if i else inner)
            _write_json(item, write, inner, step, sep)
        write(nl + "]")
    elif isinstance(value, dict) and value:
        inner = nl + step
        write("{")
        for i, (key, item) in enumerate(value.items()):
            write((sep + inner if i else inner) + _json_key(key))
            _write_json(item, write, inner, step, sep)
        write(nl + "}")
    else:
        write("[]" if isinstance(value, (list, tuple)) else
              "{}" if isinstance(value, dict) else _json_scalar(value))


def _emit_json(payload, out: str | None, indent: int | None = None) -> None:
    """Stream exactly ``json.dumps(payload, indent=indent, default=float)`` plus a
    newline, without building the whole text: the stdlib encodes indented output
    one float at a time in Python, this writer joins each row of floats at once."""
    with _output(out) as fh:
        if indent is None:
            _write_json(payload, fh.write, "", "", ", ")
        else:
            _write_json(payload, fh.write, "\n", " " * indent, ",")
        fh.write("\n")


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = list(rows[0].keys())
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{row[k]:.12g}" if isinstance(row[k], float) else str(row[k])
                         for k in header])
    return buf.getvalue()


def _load_config_file(path: str) -> dict:
    """A JSON (or ``.toml``) file whose top level is an object."""
    loads = json.loads
    if path.endswith(".toml"):
        try:
            import tomllib  # Python 3.11+
        except ImportError:
            try:
                import tomli as tomllib
            except ImportError as exc:
                raise ChannelError("TOML configs need Python 3.11+ or tomli; use JSON") from exc
        loads = tomllib.loads
    with open(path, "rb") as fh:
        head = fh.read()
    try:
        data = loads(head.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError, TOMLDecodeError
        raise ChannelError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ChannelError(f"{path}: top level must be an object, got {type(data).__name__}")
    return data


def _load_channel_arg(spec: str, validate: bool = True) -> Channel:
    """A channel argument is a JSON file path or name:param=value[,...]."""
    if os.path.exists(spec):
        return channel_from_dict(_load_config_file(spec), validate=validate)
    if ":" in spec:
        name, _, rest = spec.partition(":")
        params = {}
        for item in rest.split(","):
            key, _, val = item.partition("=")
            try:
                params[key] = float(val)
            except ValueError:
                raise ChannelError(f"channel spec {spec!r}: {val!r} is not a number") from None
        return channel_by_name(name, **params)
    raise ChannelError(f"channel spec {spec!r} is neither a file nor name:param=value")


# -- channel subcommand -----------------------------------------------------------


def cmd_channel(args) -> int:
    if args.channel_cmd == "build":
        params = {k: getattr(args, k) for k in CHANNEL_PARAMS if getattr(args, k) is not None}
        ch = channel_by_name(args.name, **params)
        _emit_json(channel_to_dict(ch), args.out)
        return EXIT_OK
    if args.channel_cmd == "convert":
        ch = _load_channel_arg(args.input)
        if args.to == "kraus":
            data = encode_complex(ch.kraus(), "kraus")
        elif args.to == "superop":
            data = encode_complex(ch.superop(), "superop")
        else:
            data = channel_to_dict(ch)
        _emit_json(data, args.out)
        return EXIT_OK
    if args.channel_cmd == "fidelity":
        a = _load_channel_arg(args.first)
        b = _load_channel_arg(args.second)
        _emit_json({"fidelity": choi_fidelity(a, b)}, args.out)
        return EXIT_OK
    if args.channel_cmd == "validate":
        # reporting on an invalid channel is this command's job
        ch = _load_channel_arg(args.input, validate=False)
        report = validate_cptp(ch)
        payload = {
            "passed": report.passed,
            "min_choi_eigenvalue": report.min_choi_eigenvalue,
            "trace_preservation_residual": report.trace_preservation_residual,
            "choi_trace_residual": report.choi_trace_residual,
        }
        _emit_json(payload, args.out)
        return EXIT_OK if report.passed else EXIT_NUMERICAL
    raise ChannelError(f"unknown channel subcommand {args.channel_cmd!r}")


# -- dilate subcommand ------------------------------------------------------------


def cmd_dilate(args) -> int:
    if args.random_rank is not None:
        rng = np.random.default_rng(args.seed)
        ch = random_channel(args.random_dim, args.random_rank, rng)
    else:
        if not args.input:
            raise ChannelError("dilate needs --in CHANNEL or --random-rank R")
        ch = _load_channel_arg(args.input)
    kraus = ch.kraus()
    if args.mode == "ancilla":
        dil = stinespring_dilate(kraus)
        payload = {
            "mode": "ancilla",
            "ancilla_dim": dil.ancilla_dim,
            **encode_complex(dil.unitary, "unitary"),
            "overhead_qubits": dil.overhead(),
        }
    else:
        payload = {"mode": "qudit", **routine_to_dict(extended_qudit_routine(kraus))}
    _emit_json(payload, args.out)
    if args.out:
        print(f"overhead_qubits {payload['overhead_qubits']:.12g}")
    return EXIT_OK


# -- figures subcommand -----------------------------------------------------------


# sweep -> (first value, last value, number of values; None takes --grid)
_SWEEPS = {"fig5a": (0.80, 1.00, 11), "fig5b": (0.0, 1.0, None), "fig6a": (0.05, 0.95, None),
           "fig6b": (0.05, 0.95, None), "fig6c": (0.0, 1.0, None)}


def _figure_rows(args) -> list[dict]:
    if args.figure == "fig7c":
        return fig.fig7c_rows(grid=args.grid)
    first, last, count = _SWEEPS[args.figure]
    opt = OptimizerConfig(restarts=args.restarts, max_evals_per_restart=args.evals,
                          seed=args.seed)
    kwargs = {} if args.figure == "fig6a" else {"seed": args.seed, "optimizer": opt}
    return [row for v in np.linspace(first, last, count or args.grid)
            for row in fig.FIGURES[args.figure]([v], **kwargs)]


def cmd_figures(args) -> int:
    rows = _figure_rows(args)
    if args.format == "json":
        _emit_json(rows, args.out, indent=2)
    else:
        with _output(args.out) as fh:
            fh.write(rows_to_csv(rows))
    return EXIT_OK


# -- tailor subcommand ------------------------------------------------------------


def cmd_tailor(args) -> int:
    config = _load_config_file(args.config)
    config.setdefault("seed", args.seed)
    result = run_tailoring_job(config)
    _emit_json(result, args.out, indent=2)
    return EXIT_NUMERICAL if result.get("feasible") is False else EXIT_OK


# -- simulate subcommand ----------------------------------------------------------


def cmd_simulate(args) -> int:
    circuit = circuit_from_dict(_load_config_file(args.circuit))
    dims = circuit.wire_dims()
    data = circuit.data()
    d = math.prod(dims[w] for w in data)
    if args.state is None or args.state.isdigit():
        index = int(args.state or 0)
        if index >= d:
            raise ChannelError(f"basis state {index} out of range for dimension {d}")
        rho = np.zeros((d, d), dtype=np.complex128)
        rho[index, index] = 1.0
    else:
        rho = decode_complex(_load_config_file(args.state), "", (d, d))
        validate_density(rho)
    rho_out, branches = simulate_detailed(circuit, rho)
    payload = {
        "state": encode_complex(rho_out, ""),
        "branches": [{"records": rec, "prob": prob} for rec, prob in branches],
    }
    if args.samples:
        # demonstration-only sampling from the exact branch distribution
        rng = np.random.default_rng(args.seed)
        probs = np.array([p for _, p in branches])
        probs = probs / probs.sum()
        draws = rng.choice(len(branches), size=args.samples, p=probs)
        payload["sampled_counts"] = dict(Counter(json.dumps(branches[i][0], sort_keys=True)
                                                 for i in draws))
        payload["samples"] = args.samples
        payload["seed"] = args.seed
    _emit_json(payload, args.out, indent=2)
    return EXIT_OK


# -- netsim subcommand ------------------------------------------------------------


def cmd_netsim(args) -> int:
    data = _load_config_file(args.scenario)
    scenario = scenario_from_dict(data)
    report = run_scenario(scenario)
    payload = {
        "fidelities": report.fidelities,
        "states": {name: encode_complex(rho, "") for name, rho in report.states.items()},
        "branches": [{"records": rec, "prob": prob} for rec, prob in report.branch_log],
        "final_trace": report.final_trace,
    }
    _emit_json(payload, args.out, indent=2)
    return EXIT_OK


# -- parser -----------------------------------------------------------------------


def _int_from(lo: int):
    """argparse type: an integer >= lo (anything else is a usage error, exit 2)."""
    def parse(text: str) -> int:
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"{text} is below {lo}")
        return int(text)
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="channel-forge",
                                     description="quantum-channel engineering toolkit")
    parser.add_argument("--seed", type=_int_from(0), default=0, help="rng seed for stochastic modes")
    parser.add_argument("--out", default=None, help="output path (stdout when omitted)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = parser.add_subparsers(dest="command", required=True)

    p_channel = sub.add_parser("channel", help="build/convert/compare/validate channels")
    sub_channel = p_channel.add_subparsers(dest="channel_cmd", required=True)
    p_build = sub_channel.add_parser("build")
    p_build.add_argument("--name", required=True)
    p_build.add_argument("--p", type=float)
    p_build.add_argument("--q", type=float)
    p_build.add_argument("--gamma", type=float)
    p_build.add_argument("--p-prime", dest="p_prime", type=float)
    p_convert = sub_channel.add_parser("convert")
    p_convert.add_argument("--in", dest="input", required=True)
    p_convert.add_argument("--to", choices=("kraus", "superop", "choi"), required=True)
    p_fid = sub_channel.add_parser("fidelity")
    p_fid.add_argument("first")
    p_fid.add_argument("second")
    p_val = sub_channel.add_parser("validate")
    p_val.add_argument("input")

    p_dilate = sub.add_parser("dilate", help="synthesize channel realizations")
    p_dilate.add_argument("--in", dest="input", default=None)
    p_dilate.add_argument("--mode", choices=("ancilla", "qudit"), default="ancilla")
    p_dilate.add_argument("--random-rank", type=_int_from(1), default=None,
                          help="dilate a random channel of this Kraus rank instead")
    p_dilate.add_argument("--random-dim", type=_int_from(1), default=2)

    p_fig = sub.add_parser("figures", help="emit figure sweep data")
    p_fig.add_argument("figure", choices=sorted(fig.FIGURES))
    p_fig.add_argument("--grid", type=_int_from(1), default=20)
    p_fig.add_argument("--restarts", type=_int_from(1), default=3, help=(
        "random Method-1 seesaw starts (fig5a, fig5b, fig6c's full column) or L-BFGS-B "
        "restarts (fig6b); fig6a and fig7c ignore it"))
    p_fig.add_argument("--evals", type=_int_from(1), default=1200, help=(
        "evaluation cap of each seesaw start (fig5a, fig5b, fig6c's full column) or function-"
        "evaluation cap of each L-BFGS-B restart (fig6b); fig6a and fig7c ignore it"))

    p_tailor = sub.add_parser("tailor", help="run a tailoring job config")
    p_tailor.add_argument("--config", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a circuit file")
    p_sim.add_argument("circuit")
    p_sim.add_argument("--state", default=None,
                       help="basis index or state JSON file (default |0...0>)")
    p_sim.add_argument("--samples", type=_int_from(0), default=0,
                       help="draw this many outcomes from the exact branch distribution")

    p_net = sub.add_parser("netsim", help="run a network scenario file")
    p_net.add_argument("scenario")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        _setup_logging()
    except ChannelError as exc:  # no logging yet: the one line below is the report
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "channel":
            return cmd_channel(args)
        if args.command == "dilate":
            return cmd_dilate(args)
        if args.command == "figures":
            return cmd_figures(args)
        if args.command == "tailor":
            return cmd_tailor(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "netsim":
            return cmd_netsim(args)
        parser.error(f"unknown command {args.command!r}")
    except (ChannelError, OSError) as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
