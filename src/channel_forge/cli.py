"""Command-line interface: build/convert/compare channels, synthesize
dilations, emit figure sweeps, and run network scenarios.

Exit codes: 0 success, 1 numerical or optimizer failure, 2 configuration
error. Verbosity via the CHANNEL_FORGE_LOG environment variable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys

import numpy as np

from . import figures as fig
from .channels import (
    Channel,
    ChannelError,
    channel_from_json,
    channel_to_dict,
    choi_fidelity,
    random_channel,
    validate_cptp,
)
from .dilation import extended_qudit_routine, routine_to_dict, stinespring_dilate
from .netsim import run_scenario, scenario_from_dict
from .noise import channel_by_name
from .tailor import OptimizerConfig

log = logging.getLogger("channel_forge")

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2


def _setup_logging() -> None:
    level = os.environ.get("CHANNEL_FORGE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = list(rows[0].keys())
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_value(row[k]) for k in header])
    return buf.getvalue()


def _emit_rows(rows: list[dict], out: str | None, fmt: str) -> None:
    if fmt == "csv":
        _emit(rows_to_csv(rows), out)
    else:
        _emit(json.dumps(rows, indent=2, default=float) + "\n", out)


def _load_config_file(path: str) -> dict:
    with open(path, "rb") as fh:
        head = fh.read()
    if path.endswith(".toml"):
        try:
            import tomllib  # Python 3.11+
        except ImportError:
            try:
                import tomli as tomllib
            except ImportError as exc:
                raise ChannelError("TOML configs need Python 3.11+ or tomli; use JSON") from exc
        return tomllib.loads(head.decode("utf-8"))
    return json.loads(head.decode("utf-8"))


def _load_channel_arg(spec: str) -> Channel:
    """A channel argument is a JSON file path or name:param=value[,...]."""
    if os.path.exists(spec):
        with open(spec, encoding="utf-8") as fh:
            return channel_from_json(fh.read(), validate=False)
    if ":" in spec:
        name, _, rest = spec.partition(":")
        params = {}
        for item in rest.split(","):
            key, _, val = item.partition("=")
            params[key] = float(val)
        return channel_by_name(name, **params)
    raise ChannelError(f"channel spec {spec!r} is neither a file nor name:param=value")


# -- channel subcommand -----------------------------------------------------------


def cmd_channel(args) -> int:
    if args.channel_cmd == "build":
        params = {}
        for key in ("p", "q", "gamma", "p_prime"):
            val = getattr(args, key, None)
            if val is not None:
                params[key] = val
        ch = channel_by_name(args.name, **params)
        _emit(json.dumps(channel_to_dict(ch)) + "\n", args.out)
        return EXIT_OK
    if args.channel_cmd == "convert":
        ch = _load_channel_arg(args.input)
        if args.to == "kraus":
            data = {"kraus_re": [k.real.tolist() for k in ch.kraus()],
                    "kraus_im": [k.imag.tolist() for k in ch.kraus()]}
        elif args.to == "superop":
            s = ch.superop()
            data = {"superop_re": s.real.tolist(), "superop_im": s.imag.tolist()}
        else:
            data = channel_to_dict(ch)
        _emit(json.dumps(data) + "\n", args.out)
        return EXIT_OK
    if args.channel_cmd == "fidelity":
        a = _load_channel_arg(args.first)
        b = _load_channel_arg(args.second)
        f = choi_fidelity(a, b)
        _emit(json.dumps({"fidelity": f}) + "\n", args.out)
        return EXIT_OK
    if args.channel_cmd == "validate":
        ch = _load_channel_arg(args.input)
        report = validate_cptp(ch)
        payload = {
            "passed": report.passed,
            "min_choi_eigenvalue": report.min_choi_eigenvalue,
            "trace_preservation_residual": report.trace_preservation_residual,
            "choi_trace_residual": report.choi_trace_residual,
        }
        _emit(json.dumps(payload) + "\n", args.out)
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
            "unitary_re": dil.unitary.real.tolist(),
            "unitary_im": dil.unitary.imag.tolist(),
            "overhead_qubits": dil.overhead(),
        }
        overhead = dil.overhead()
    else:
        routine = extended_qudit_routine(kraus)
        payload = {"mode": "qudit", **routine_to_dict(routine)}
        overhead = routine.overhead()
    _emit(json.dumps(payload) + "\n", args.out)
    if args.out:
        print(f"overhead_qubits {overhead:.12g}")
    return EXIT_OK


# -- figures subcommand -----------------------------------------------------------


def _figure_rows(args) -> list[dict]:
    name = args.figure
    opt = OptimizerConfig(restarts=args.restarts, max_evals_per_restart=args.evals,
                          seed=args.seed)
    if name == "fig7c":
        return fig.fig7c_rows(grid=args.grid)
    if name == "fig5a":
        values = list(np.linspace(0.80, 1.00, 11))
        runner = lambda v: fig.fig5a_rows([v], seed=args.seed, optimizer=opt)
    elif name == "fig5b":
        values = list(np.linspace(0.0, 1.0, args.grid))
        runner = lambda v: fig.fig5b_rows([v], seed=args.seed, optimizer=opt)
    elif name == "fig6a":
        values = list(np.linspace(0.05, 0.95, args.grid))
        runner = lambda v: fig.fig6a_rows([v])
    elif name == "fig6b":
        values = list(np.linspace(0.05, 0.95, args.grid))
        runner = lambda v: fig.fig6b_rows([v], seed=args.seed, optimizer=opt)
    elif name == "fig6c":
        values = list(np.linspace(0.0, 1.0, args.grid))
        runner = lambda v: fig.fig6c_rows([v], seed=args.seed, optimizer=opt)
    else:
        raise ChannelError(f"unknown figure {name!r}; known: {sorted(fig.FIGURES)}")
    return [row for v in values for row in runner(v)]


def cmd_figures(args) -> int:
    rows = _figure_rows(args)
    _emit_rows(rows, args.out, args.format)
    return EXIT_OK


# -- tailor subcommand ------------------------------------------------------------


def cmd_tailor(args) -> int:
    from .tailor import run_tailoring_job

    config = _load_config_file(args.config)
    if args.seed is not None:
        config.setdefault("seed", args.seed)
    result = run_tailoring_job(config)
    _emit(json.dumps(result, indent=2, default=float) + "\n", args.out)
    if result.get("feasible") is False:
        return EXIT_NUMERICAL
    return EXIT_OK


# -- simulate subcommand ----------------------------------------------------------


def cmd_simulate(args) -> int:
    from .circuits import circuit_from_dict, simulate_detailed

    circuit = circuit_from_dict(_load_config_file(args.circuit))
    dims = circuit.wire_dims()
    data = circuit.data()
    d = int(np.prod([dims[w] for w in data]))
    if args.state is None:
        rho = np.zeros((d, d), dtype=np.complex128)
        rho[0, 0] = 1.0
    elif args.state.isdigit():
        rho = np.zeros((d, d), dtype=np.complex128)
        rho[int(args.state), int(args.state)] = 1.0
    else:
        data_dict = _load_config_file(args.state)
        rho = (np.asarray(data_dict["re"], dtype=float)
               + 1j * np.asarray(data_dict.get("im", np.zeros_like(data_dict["re"])), dtype=float))
    rho_out, branches = simulate_detailed(circuit, rho)
    payload = {
        "state": {"re": rho_out.real.tolist(), "im": rho_out.imag.tolist()},
        "branches": [{"records": rec, "prob": prob} for rec, prob in branches],
    }
    if args.samples:
        # demonstration-only sampling from the exact branch distribution
        rng = np.random.default_rng(args.seed)
        probs = np.array([p for _, p in branches])
        probs = probs / probs.sum()
        draws = rng.choice(len(branches), size=args.samples, p=probs)
        counts = {}
        for idx in draws:
            key = json.dumps(branches[idx][0], sort_keys=True)
            counts[key] = counts.get(key, 0) + 1
        payload["sampled_counts"] = counts
        payload["samples"] = args.samples
        payload["seed"] = args.seed
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


# -- netsim subcommand ------------------------------------------------------------


def cmd_netsim(args) -> int:
    data = _load_config_file(args.scenario)
    scenario = scenario_from_dict(data)
    report = run_scenario(scenario)
    payload = {
        "fidelities": report.fidelities,
        "states": {name: {"re": rho.real.tolist(), "im": rho.imag.tolist()}
                   for name, rho in report.states.items()},
        "branches": [{"records": rec, "prob": prob} for rec, prob in report.branch_log],
        "final_trace": report.final_trace,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="channel-forge",
                                     description="quantum-channel engineering toolkit")
    parser.add_argument("--seed", type=int, default=0, help="rng seed for stochastic modes")
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
    p_dilate.add_argument("--random-rank", type=int, default=None,
                          help="dilate a random channel of this Kraus rank instead")
    p_dilate.add_argument("--random-dim", type=int, default=2)

    p_fig = sub.add_parser("figures", help="emit figure sweep data")
    p_fig.add_argument("figure", choices=sorted(fig.FIGURES))
    p_fig.add_argument("--grid", type=int, default=20)
    p_fig.add_argument("--restarts", type=int, default=3)
    p_fig.add_argument("--evals", type=int, default=1200)

    p_tailor = sub.add_parser("tailor", help="run a tailoring job config")
    p_tailor.add_argument("--config", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a circuit file")
    p_sim.add_argument("circuit")
    p_sim.add_argument("--state", default=None,
                       help="basis index or state JSON file (default |0...0>)")
    p_sim.add_argument("--samples", type=int, default=0,
                       help="draw this many outcomes from the exact branch distribution")

    p_net = sub.add_parser("netsim", help="run a network scenario file")
    p_net.add_argument("scenario")

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
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
    except ChannelError as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
