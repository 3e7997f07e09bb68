"""Command-line front end: identity verification runs and sequence export.

Subcommands:
    verify [--id I3] [--order N] [--oracle-bound B] [--format json|text] [--output F]
    seq <name> --upto K [--format csv|json] [--output F]
    coeff <expr-id> <n>

The SPTLAB_ORDER environment variable supplies a default truncation order;
an explicit --order flag wins.  ``verify`` exits 0 exactly when every
executed (non-diagnostic) check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import identities


def _resolve_order(flag_value: int | None) -> int | None:
    env = os.environ.get(identities.ORDER_ENV_VAR)
    if flag_value is not None or not env:
        return flag_value
    try:
        return int(env)
    except ValueError:
        raise SystemExit(f"{identities.ORDER_ENV_VAR} must be an integer, got {env!r}")


def _check_output(output: str | None) -> None:
    """Fail before any work if ``output`` cannot be written; leave no file behind."""
    if output:
        fresh = not os.path.lexists(output)
        try:
            open(output, "a").close()
        except OSError as exc:
            raise SystemExit(f"cannot write {output}: {exc.strerror}")
        if fresh:
            os.remove(output)


def _format_text(results, order, oracle_bound) -> str:
    lines = [
        f"identity verification: order={'default' if order is None else order} "
        f"oracle_bound={oracle_bound if oracle_bound is not None else identities.DEFAULT_ORACLE_BOUND}"
    ]
    for r in results:
        line = f"{r.id:>4}  {r.status:<5} order={r.order_checked:<3} ({r.runtime_ms:.1f} ms)"
        if r.first_mismatch is not None:
            idx, left, right = r.first_mismatch
            line += f"  first mismatch at {idx}: {left} vs {right}"
        lines.append(line)
        d = r.diagnostic or {}
        if "error" in d:
            lines.append(f"      error: {d['error']}")
        if "name" in d:
            note = f"      diagnostic {d['name']}: {d['status']} (expected {d['expected_status']})"
            if "first_mismatch" in d:
                idx, left, right = d["first_mismatch"]
                note += f", first mismatch at {idx}: {left} vs {right}"
            lines.append(note)
    passed = sum(r.status == "pass" for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sptlab",
        description="exact q-series identity checks for smallest-parts partition statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the identity registry")
    v.add_argument("--id", help="run a single check (e.g. I3) instead of all 22")
    v.add_argument("--order", type=int, default=None,
                   help=f"series truncation order, 10 to {identities.MAX_ORDER}")
    v.add_argument("--oracle-bound", type=int, default=None,
                   help="max index for enumeration-backed comparisons, "
                        f"1 to {identities.MAX_ORACLE_BOUND}")
    v.add_argument("--format", choices=("json", "text"), default="text")
    v.add_argument("--output", help="write the report to a file instead of stdout")

    s = sub.add_parser("seq", help="export a named sequence")
    s.add_argument("name", choices=identities.SEQUENCE_NAMES)
    s.add_argument("--upto", type=int, required=True,
                   help=f"largest index to export, at most {identities.MAX_ORDER}")
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.add_argument("--output", help="write to a file instead of stdout")

    c = sub.add_parser("coeff", help="print one coefficient of a registered series")
    c.add_argument("expr_id", choices=identities.SEQUENCE_NAMES)
    c.add_argument("n", type=int)

    args = parser.parse_args(argv)
    order = _resolve_order(args.order) if args.command == "verify" else None
    output = getattr(args, "output", None)
    _check_output(output)
    try:
        if args.command == "verify":
            if args.id:
                results = [identities.run(args.id, order, args.oracle_bound)]
            else:
                results = identities.run_all(order, args.oracle_bound)
        elif args.command == "seq":
            text = identities.export_sequence(args.name, args.upto, args.format)
        else:
            values = dict(identities.sequence_values(args.expr_id, args.n))
    except ValueError as exc:
        raise SystemExit(str(exc))

    if args.command == "verify":
        if args.format == "json":
            text = json.dumps(
                identities.report(results, order, args.oracle_bound), indent=2
            ) + "\n"
        else:
            text = _format_text(results, order, args.oracle_bound)
    elif args.command == "coeff":
        if args.n not in values:
            raise SystemExit(f"{args.expr_id} has no index {args.n}")
        text = f"{values[args.n]}\n"
    if output:
        try:
            Path(output).write_text(text)
        except OSError as exc:  # a full disk passes the up-front check
            raise SystemExit(f"cannot write {output}: {exc.strerror}")
    else:
        sys.stdout.write(text)
    return 1 if args.command == "verify" and not identities.all_passed(results) else 0


if __name__ == "__main__":
    raise SystemExit(main())
