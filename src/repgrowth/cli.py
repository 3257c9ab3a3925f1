"""Command-line front end: parse specs, run computations, export tables.

Exit codes: 0 ok, 1 stdout closed early, and the exit_code of each
errors.ReportedError subclass: 2 parse error, 3 precondition violation,
4 budget exhausted (a --budget, a number too large to materialize exactly,
a base**exponent multiplicity whose log passes double range, an exact
count too long to print, or memory run out, a MemoryError), 5 internal
invariant failure.
Identical invocations produce byte-identical output on the exact backend.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from . import constructor, finite_groups, growth, lie_data
from .dirichlet import max_str_digits
from .errors import BudgetExceededError, InvariantError, PreconditionError, ReportedError, SpecFormatError
from .errors import fraction_field, int_field, rational


def _fraction_arg(text: str) -> Fraction:
    """--rho, read like the rational spec fields (no exponent notation)."""
    try:
        return rational(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational like 3/2: {text!r}")


def _out_arg(path: str) -> str:
    """--out, refused at parse time when it cannot be written (a missing
    directory, a directory), so no work is done for output that would be
    lost; the probe leaves no new file behind."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as e:
        raise argparse.ArgumentTypeError(f"cannot write {path!r}: {e.strerror or e}")
    if not existed:
        os.remove(path)
    return path


def _load_json(arg: str):
    """The JSON value in arg: inline JSON text (first non-space character
    { or [), - for stdin, or else a file path.  Every unreadable or
    malformed input is a SpecFormatError."""
    try:
        if arg.lstrip()[:1] in ("{", "["):
            text = arg
        elif arg == "-":
            text = sys.stdin.read()
        else:
            with open(arg, encoding="utf-8") as fh:
                text = fh.read()
    except FileNotFoundError:
        raise SpecFormatError(f"spec file not found: {arg}")
    except (OSError, ValueError) as e:  # a directory, bad UTF-8, a NUL in the path
        raise SpecFormatError(f"cannot read {arg}: {e}")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # bad syntax, a huge integer, deep nesting
        raise SpecFormatError(f"invalid JSON: {e}")


def _load_spec(arg: Optional[str]) -> growth.GroupSpec:
    if arg is None:
        raise SpecFormatError("needs --spec")
    return growth.GroupSpec.from_jsonable(_load_json(arg))


def _load_targets(arg: str) -> list:
    """The --targets-json stages: a list of {"rho_m", "lie_type", "p"}."""
    raw = _load_json(arg)
    if not isinstance(raw, list) or not all(isinstance(item, dict) for item in raw):
        raise SpecFormatError("targets must be a list of objects")
    return [
        (
            fraction_field(item, "rho_m", f"/{k}"),
            lie_data.LieType.from_jsonable(item.get("lie_type"), f"/{k}/lie_type"),
            int_field(item, "p", f"/{k}"),
        )
        for k, item in enumerate(raw)
    ]


def _refuse(args, flags, why: str) -> None:
    """Exit 2 on the first of flags given; each defaults to None, or False for a switch."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value is not False:  # 0 == False, so no `in`
            raise SpecFormatError(f"{flag} {why}")


def _emit(out, text: str) -> None:
    """Write one chunk of a command's output to out."""
    out.write(text)


def _emit_chunks(args, chunks) -> None:
    """Write each chunk to the --out file, or to stdout, as it is formed,
    and a newline after the last when it does not end in one: the file gets
    the bytes that stdout would."""
    with open(args.out, "w") if getattr(args, "out", None) else contextlib.nullcontext(sys.stdout) as out:
        last = "\n"
        for chunk in chunks:
            _emit(out, chunk)
            last = chunk or last
        if not last.endswith("\n"):
            _emit(out, "\n")


def _emit_json(args, obj) -> None:
    _emit_chunks(args, (json.dumps(obj, indent=2, sort_keys=True),))


# ---------------------------------------------------------------------------


def _cmd_zeta(args) -> int:
    if args.group:
        _refuse(args, ["--spec"], "does not apply with --group")
        if args.q is None:
            raise PreconditionError("--group needs --q")
        factor = growth.FactorSpec(lie_data.A1, args.q, simple=args.group == "PSL2")
        spec = growth.GroupSpec((growth.FiniteStratum((factor,)),))
    else:
        _refuse(args, ["--q"], "applies only with --group")
        spec = _load_spec(args.spec)
    series = growth.truncated_zeta(spec, args.N)
    _emit_chunks(args, series.csv_chunks() if args.format == "csv" else series.json_chunks())
    return 0


def _cmd_abscissa(args) -> int:
    if args.example:
        _refuse(args, ["--spec"], "does not apply with --example")
    else:
        _refuse(args, ["--d"], "applies only with --example")
    if not args.empirical:
        _refuse(args, ["--N"], "applies only with --empirical")
    if args.example:
        if args.example != "sl2-primes":
            raise PreconditionError(f"unknown example {args.example!r}")
        spec = growth.sl2_over_primes_spec(3 if args.d is None else args.d)
    else:
        spec = _load_spec(args.spec)
    if args.empirical:
        run = growth.SlopePass(spec, 10 ** 6 if args.N is None else args.N)
        _emit_chunks(args, run.csv_chunks() if args.format == "csv" else run.json_chunks())
        return 0
    summary = growth.exact_abscissa(spec)
    if args.format == "csv":
        _emit_chunks(args, (summary.to_csv(),))
    else:
        _emit_json(args, summary.to_jsonable())
    return 0


def _cmd_construct(args) -> int:
    if args.mode == "fixed":
        _refuse(
            args, ["--stages", "--targets-json", "--budget"], "does not apply to construct fixed"
        )
    else:
        _refuse(args, ["--rank", "--twisted", "--q"], "does not apply to construct diagonal")
        if args.targets_json:
            _refuse(args, ["--stages", "--family"], "does not apply with --targets-json")
    if args.p is None and not args.targets_json:
        raise SpecFormatError("needs --p")
    family = "A" if args.family is None else args.family
    if args.mode == "fixed":
        rank = args.rank
        if rank is None:  # the family's smallest rank; an unknown family fails in LieType
            rank = lie_data._RANK_RANGE.get(family, (None,))[0]
        t = lie_data.LieType(family, rank, args.twisted)
        spec = constructor.build_fixed_type(args.rho, t, args.p, args.q)
        _emit_json(args, spec.to_jsonable())
        return 0
    if args.targets_json:
        targets = _load_targets(args.targets_json)
    else:
        stages = 4 if args.stages is None else args.stages
        targets = constructor.default_diagonal_targets(args.rho, stages, args.p, family)
    budget = 10 ** 9 if args.budget is None else args.budget
    spec, cert = constructor.build_diagonal(args.rho, targets, budget)
    _emit_json(args, {"spec": spec.to_jsonable(), "certificate": cert.to_jsonable()})
    return 0


def _cmd_prg(args) -> int:
    spec = _load_spec(args.spec)
    _emit_json(args, growth.prg_verdict(spec).to_jsonable())
    return 0


def _cmd_gens(args) -> int:
    G = finite_groups.get_group(args.group)
    ds = args.d or [2]
    # phi_d <= |G|^d, so below 10^digits every count prints, and
    # |G|^d >= 2^((b-1)d) settles a large d without forming the power
    digits = max_str_digits()
    d, b = max(ds), G.order.bit_length()
    if d * (b - 1) >= 4 * digits or G.order ** d >= 10 ** digits:
        raise PreconditionError(
            f"--d {d}: |{G.name}|^{d} has more than {digits} digits, too many to print"
        )
    out = finite_groups.counts_jsonable(G, ds)
    if args.min_gens is not None:
        out["min_generators"] = {
            "k": str(args.min_gens),
            "d": finite_groups.min_generators_power(G, args.min_gens),
        }
    _emit_json(args, out)
    return 0


def _cmd_check(args) -> int:
    from . import invariants  # its one reader: no other command compiles or runs it

    failures = 0
    for name, ok in invariants.suite():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += not ok
    if failures:
        print(f"{failures} invariant check(s) failed")
        return InvariantError.exit_code
    print("all invariant checks passed")
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    main() call after the first, so it must hold no per-call state: each
    parse_args makes a fresh namespace, and the type and action callbacks
    keep nothing between calls."""
    ap = argparse.ArgumentParser(prog="repgrowth")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeta", help="truncated zeta series of a group or spec")
    p.add_argument("--group", choices=["SL2", "PSL2"])
    p.add_argument("--q", type=int)
    p.add_argument("--spec", help="spec JSON path, inline JSON, or - for stdin")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", type=_out_arg)
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("abscissa", help="exact abscissa or empirical slope table")
    p.add_argument("--spec")
    p.add_argument("--example", help="canned family, e.g. sl2-primes")
    p.add_argument("--d", type=int, help="generator count for sl2-primes, default 3")
    p.add_argument("--empirical", action="store_true")
    p.add_argument("--N", type=int, help="default 10**6; --empirical only")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", type=_out_arg)
    p.set_defaults(func=_cmd_abscissa)

    p = sub.add_parser("construct", help="build a spec of prescribed growth degree")
    p.add_argument("mode", choices=["fixed", "diagonal"])
    p.add_argument("--rho", type=_fraction_arg, required=True)
    p.add_argument("--family", help="default A; not with --targets-json")
    p.add_argument("--rank", type=int, help="default the family's smallest; fixed only")
    p.add_argument("--twisted", action="store_true", help="fixed only")
    p.add_argument("--p", type=int, help="required unless --targets-json gives the stages")
    p.add_argument("--q", type=int, help="fixed only")
    p.add_argument("--stages", type=int, help="default 4; diagonal only, not with --targets-json")
    p.add_argument("--targets-json", help="diagonal only")
    p.add_argument("--budget", type=int, help="default 10**9; diagonal only")
    p.add_argument("--out", type=_out_arg)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("prg", help="polynomial representation growth verdict")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", type=_out_arg)
    p.set_defaults(func=_cmd_prg)

    p = sub.add_parser("gens", help="generating-tuple and automorphism counts")
    p.add_argument("--group", required=True)
    p.add_argument("--d", type=int, action="append")
    p.add_argument("--min-gens", type=int, dest="min_gens")
    p.add_argument("--out", type=_out_arg)
    p.set_defaults(func=_cmd_gens)

    p = sub.add_parser("check", help="run the bundled invariant suite")
    p.set_defaults(func=_cmd_check)

    return ap


def main(argv: Optional[list] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else SpecFormatError.exit_code
    try:
        return args.func(args)
    except ReportedError as e:
        print(f"{e.label}: {e}", file=sys.stderr)
        if e.partial is not None and getattr(args, "out", None):
            with open(args.out, "w") as fh:
                json.dump({"partial_certificate": e.partial.to_jsonable()}, fh, indent=2)
        return e.exit_code
    except MemoryError:
        pass  # leaving the handler frees the frames the traceback holds
    print(f"error: out of memory in {args.command}", file=sys.stderr)
    return BudgetExceededError.exit_code


def entrypoint() -> None:
    if isinstance(sys.stdout.buffer, io.RawIOBase):
        # unbuffered stdout (PYTHONUNBUFFERED, -u) takes a short write into
        # a closed pipe as success and drops the rest; a BufferedWriter
        # writes until done, so the closed pipe raises BrokenPipeError
        sys.stdout = io.TextIOWrapper(
            io.BufferedWriter(io.FileIO(sys.stdout.fileno(), "w", closefd=False)),
            encoding=sys.stdout.encoding,
            errors=sys.stdout.errors,
            line_buffering=True,
        )
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early (say by `| head`): Python's documented
        # recipe points stdout at devnull so that the flush at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
