"""Command-line surface: single solves, Monte-Carlo sweeps, and verification.

Exit codes: 0 success, 1 invalid config or flags, 2 I/O failure,
3 verification found a failing check.

Only ``model`` loads with this module, so a usage error, ``--help`` or an
invalid config is answered without NumPy. ``main`` loads the config and hands
it to the command, which checks its own flags before it imports the engine
modules it runs. ``main`` also maps a ``ValueError`` the library raises to
exit 1 with its message; a command catches one itself only to prefix it or
to give it another exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

from . import __version__
from .model import SWEEP_VARIABLES, ConfigError, PolicyId, load_config

__all__ = ["entrypoint", "main"]

_BANNER = f"swipt-relay {__version__}"
_ALL_POLICY_NAMES = ",".join(policy.value for policy in PolicyId)
# a range's points are built as a list before the sweep runs each of them
# for every trial; past this many, a mistyped step would exhaust memory
# long before any sweep could finish, so the range is refused up front
_MAX_RANGE_POINTS = 10**6


class _CommandError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as invalid flags do."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _invalid(what: str, exc: ConfigError) -> _CommandError:
    """Exit 1 with ``what`` over the faults of ``exc``, one a line."""
    lines = "\n".join(f"  - {error}" for error in exc.errors)
    return _CommandError(1, f"{what}:\n{lines}")


def _load_config(path: str):
    try:
        return load_config(path)
    except OSError as exc:
        raise _CommandError(2, f"cannot read config '{path}': {exc}") from exc
    except ConfigError as exc:
        raise _invalid(f"invalid config '{path}'", exc) from exc
    except ValueError as exc:
        # malformed JSON or bytes that are not UTF-8
        raise _CommandError(1, f"invalid config '{path}': {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _CommandError(2, f"cannot write '{path}': {exc}") from exc


def _parse_values(text: str) -> list[float]:
    """Sweep points: either a comma list ('10,20,30') or an inclusive range
    'START..STOP step S' (also spelled 'START..STOP:S')."""
    text = text.strip()
    if ".." in text:
        match = re.fullmatch(r"(.+?)\.\.(.+?)(?:\s+step\s+|:)(.+)", text)
        if match is None:
            raise _CommandError(
                1, f"cannot parse range '{text}'; expected 'START..STOP step S'"
            )
        try:
            start, stop, step = (float(part) for part in match.groups())
        except ValueError as exc:
            raise _CommandError(1, f"cannot parse range '{text}': {exc}") from exc
        if step <= 0:
            raise _CommandError(1, "range step must be positive")
        span = (stop - start) / step
        if not all(map(math.isfinite, (start, stop, step, span))):
            raise _CommandError(1, f"cannot parse range '{text}': bounds, step and span must be finite")
        if stop < start:
            raise _CommandError(1, f"range '{text}' ends below its start")
        count = round(span)
        if abs(start + count * step - stop) > 1e-9 * max(1.0, abs(stop)):
            raise _CommandError(1, f"range '{text}' does not divide evenly into steps")
        if count >= _MAX_RANGE_POINTS:
            raise _CommandError(
                1, f"range '{text}' has {count + 1} points; at most {_MAX_RANGE_POINTS} are allowed"
            )
        values = [round(start + k * step, 12) for k in range(count + 1)]
    else:
        try:
            values = [float(part) for part in text.split(",")]
        except ValueError as exc:
            raise _CommandError(1, f"cannot parse values '{text}': {exc}") from exc
    return values


def _parse_policies(text: str) -> list[PolicyId]:
    return [PolicyId.from_name(name.strip()) for name in text.split(",")]


def _cmd_solve(args, cfg) -> int:
    from .allocator import allocation_to_dict, solve
    from .channel import generate_channel, load_channel_file

    if args.channel_file is not None:
        try:
            channel = load_channel_file(args.channel_file)
        except OSError as exc:
            raise _CommandError(2, f"cannot read channel file '{args.channel_file}': {exc}") from exc
        except ValueError as exc:
            raise _CommandError(1, f"invalid channel file '{args.channel_file}': {exc}") from exc
    else:
        channel = generate_channel(cfg, args.seed)
    # solve refuses a channel file of another width, a dead channel, and one
    # whose effective gain passes the float range
    result = solve(channel, cfg)
    _write_text(args.output, json.dumps(allocation_to_dict(result), indent=2) + "\n")
    return 0


def _cmd_sweep(args, cfg) -> int:
    values = _parse_values(args.values)
    policies = _parse_policies(args.policies)
    from .montecarlo import SweepSpec, sweep

    try:
        spec = SweepSpec(
            variable=args.variable,
            values=tuple(values),
            trials=args.trials,
            seed=args.seed,
            policies=tuple(policies),
        )
        result = sweep(cfg, spec)
    except ConfigError as exc:
        raise _invalid("sweep produced an invalid config", exc) from exc
    banner = None if args.no_banner else _BANNER
    _write_text(args.output, result.to_csv(banner=banner))
    return 0


def _cmd_verify(args, cfg) -> int:
    if args.seeds < 1:
        raise _CommandError(1, "seeds must be >= 1")
    from .allocator import NoUsablePairError
    from .channel import generate_channel
    from .oracle import VerificationReport, _check_verify_args, verify

    # before the first channel is generated, whose size is the config's
    _check_verify_args(cfg, args.tol)
    # one merged report, folded a seed at a time, whatever --seeds is
    merged = VerificationReport(())
    for seed in range(1, args.seeds + 1):
        try:
            report = verify(generate_channel(cfg, seed), cfg, tol=args.tol)
        except NoUsablePairError as exc:
            raise _CommandError(3, f"seed {seed}: {exc}") from exc
        merged = VerificationReport.merge((merged, report))
    print(f"{'check':<22}{'status':<8}{'max residual':<16}tolerance")
    for check in merged.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{check.check_name:<22}{status:<8}{check.residual:<16.3e}{check.tolerance:.3e}")
    print(f"seeds: {args.seeds}  overall: {'PASS' if merged.all_pass else 'FAIL'}")
    if args.output is not None:
        _write_text(args.output, merged.to_json() + "\n")
    return 0 if merged.all_pass else 3


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="swipt-relay",
        description=(
            "Simulator for a two-hop OFDM decode-and-forward link whose relay "
            "harvests its transmit power from the source signal via power "
            "splitting."
        ),
    )
    parser.add_argument("--version", action="version", version=_BANNER)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser(
        "solve", help="allocate one channel realization and emit the result as JSON"
    )
    p_solve.add_argument("config", help="path to the system config JSON file")
    p_solve.add_argument("--seed", type=int, default=1, help="channel seed (default: 1)")
    p_solve.add_argument(
        "--channel-file",
        default=None,
        help="JSON file {h_sq: [...], g_sq: [...]} that bypasses seeded generation",
    )
    p_solve.add_argument(
        "-o", "--output", default="-", help="output path, or '-' for stdout (default)"
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser(
        "sweep", help="Monte-Carlo sweep over a power budget or relay position grid"
    )
    p_sweep.add_argument("config", help="path to the system config JSON file")
    p_sweep.add_argument(
        "--variable",
        required=True,
        choices=SWEEP_VARIABLES,
        help="which knob to sweep (relay_position is a fraction of d0)",
    )
    p_sweep.add_argument(
        "--values",
        required=True,
        help="sweep points: '10,20,30,40' or '0.1..0.9 step 0.1' (also '0.1..0.9:0.1')",
    )
    p_sweep.add_argument(
        "--trials", type=int, default=2000, help="Monte-Carlo trials per point (default: 2000)"
    )
    p_sweep.add_argument("--seed", type=int, default=1, help="master seed (default: 1)")
    p_sweep.add_argument(
        "--policies",
        default=_ALL_POLICY_NAMES,
        help=f"comma list of policies (default: {_ALL_POLICY_NAMES})",
    )
    p_sweep.add_argument(
        "--no-banner",
        action="store_true",
        help="omit the leading '# swipt-relay <version>' comment line from the CSV",
    )
    p_sweep.add_argument(
        "-o", "--output", default="-", help="output path, or '-' for stdout (default)"
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser(
        "verify", help="run the oracle checks over seeded channels (CI-friendly)"
    )
    p_verify.add_argument("config", help="path to the system config JSON file")
    p_verify.add_argument(
        "--seeds", type=int, default=100, help="number of seeded channels to check (default: 100)"
    )
    p_verify.add_argument(
        "--tol", type=float, default=1e-9, help="residual tolerance (default: 1e-9)"
    )
    p_verify.add_argument(
        "-o", "--output", default=None, help="also write the merged JSON report here"
    )
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args, _load_config(args.config))
    except _CommandError as exc:
        print(exc.message, file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
