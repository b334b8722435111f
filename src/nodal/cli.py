"""Command line: basis, resolution, Hilbert, conductor, and verification.

Exit codes: 0 all good, 1 a verdict or certificate failed, 2 unusable
input (parse errors, unknown statement, bad flags), 3 a degree cap was
hit.  JSON output always carries a top-level schema number and sorted
keys so identical invocations produce identical bytes.
"""
from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

from .curves import (
    DEFAULT_PRIME,
    SECOND_PRIME,
    conductor_from_components,
    conductor_nodal,
    parse_fixture,
)
from .errors import (
    CharacteristicError,
    DegreeCapExceeded,
    ExponentLimitError,
    NodalError,
    NonNodalCurveError,
    ParseError,
    RetryBudgetExceeded,
)
from .hilbert import cm_regularity_crosscheck, hilbert_function
from .ideals import Ideal
from .report import betti_table
from .resolution import resolve_quotient
from .ring import DEFAULT_DEGREE_CAP, check_characteristic, check_degree_cap
from .validators import STATEMENTS, run_statement

SCHEMA = 1

# size flags of `verify`; each reaches only the runners whose signature takes it
_SIZE_FLAGS = ("lines", "curve_degree", "emm", "component")

# what the corpus runner checks per fixture kind
CURVE_STATEMENTS = (
    "two-route",
    "regularity-syzygy",
    "jacobian-syzygy",
    "component-sequence",
    "partial-normalization",
)
SINGLE_CURVE_STATEMENTS = (
    "two-route",
    "regularity-syzygy",
    "jacobian-syzygy",
    "adjoint-conditions",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodal",
        description="conductor ideals and regularity of singular plane curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, fixture_positional=True):
        if fixture_positional:
            sp.add_argument("fixture", type=Path, help="fixture file")
        sp.add_argument("--prime", type=int, default=None)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--degree-cap", type=int, default=DEFAULT_DEGREE_CAP)
        sp.add_argument("--json", action="store_true")

    for name, help_text in (
        ("gb", "reduced Groebner basis of the fixture ideal"),
        ("resolve", "minimal free resolution of the fixture quotient ring"),
        ("betti", "graded Betti table of the fixture quotient ring"),
        ("hilbert", "Hilbert function and polynomial of the fixture quotient"),
        ("conductor", "conductor report for a curve fixture"),
    ):
        common(sub.add_parser(name, help=help_text))

    sp = sub.add_parser("verify", help="check one or all statements")
    common(sp, fixture_positional=False)
    sp.add_argument("--statement", help="statement id to check")
    sp.add_argument("--all", action="store_true", help="run every statement")
    sp.add_argument(
        "--second-prime",
        action="store_true",
        help=f"also rerun at {SECOND_PRIME} and require both to pass",
    )
    sp.add_argument("--fixture", type=Path, default=None)
    for name in _SIZE_FLAGS:
        sp.add_argument("--" + name.replace("_", "-"), type=int, default=None)

    sp = sub.add_parser("corpus", help="run the fixture corpus")
    sp.add_argument("directory", type=Path)
    sp.add_argument("--prime", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--degree-cap", type=int, default=DEFAULT_DEGREE_CAP)
    sp.add_argument("--json", action="store_true")
    return parser


def _load_fixture(path: Path, prime: int | None, cap: int):
    try:
        text = path.read_text()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from e
    return parse_fixture(text, prime, cap)


def _fixture_ideal(fx) -> Ideal:
    """The ideal a fixture denotes: its generators, or the curve's equation."""
    if fx.ideal is not None:
        return fx.ideal
    return Ideal(fx.ring, [fx.curve.total_form])


def _emit(payload: dict, as_json: bool, text_lines) -> None:
    if as_json:
        payload = dict(payload, schema=SCHEMA)
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_gb(args) -> int:
    fx = _load_fixture(args.fixture, args.prime, args.degree_cap)
    gb = _fixture_ideal(fx).gb()
    basis = sorted(str(g) for g in gb.elements)
    _emit(
        {"command": "gb", "prime": fx.ring.p, "basis": basis},
        args.json,
        basis,
    )
    return 0


def _cmd_resolve(args) -> int:
    fx = _load_fixture(args.fixture, args.prime, args.degree_cap)
    res = resolve_quotient(_fixture_ideal(fx))
    lines = [
        f"level {i}: twists {list(level)}" for i, level in enumerate(res.twists)
    ]
    _emit(
        {
            "command": "resolve",
            "prime": fx.ring.p,
            "twists": [list(level) for level in res.twists],
            "regularity": res.regularity(),
        },
        args.json,
        lines + [f"regularity {res.regularity()}"],
    )
    return 0


def _cmd_betti(args) -> int:
    fx = _load_fixture(args.fixture, args.prime, args.degree_cap)
    table = betti_table(resolve_quotient(_fixture_ideal(fx)))
    _emit(
        {"command": "betti", "prime": fx.ring.p, "table": table.as_dict()},
        args.json,
        [table.render()],
    )
    return 0


def _cmd_hilbert(args) -> int:
    fx = _load_fixture(args.fixture, args.prime, args.degree_cap)
    data = hilbert_function(_fixture_ideal(fx))
    _emit(
        {"command": "hilbert", "prime": fx.ring.p, "hilbert": data.as_dict()},
        args.json,
        [
            f"values {list(data.values)}",
            f"polynomial {[str(c) for c in data.polynomial]}",
            f"agreement degree {data.agreement_degree}",
        ],
    )
    return 0


def _cmd_conductor(args) -> int:
    fx = _load_fixture(args.fixture, args.prime, args.degree_cap)
    if fx.curve is None:
        raise ParseError("conductor needs a curve fixture, not generators")
    if fx.curve.components_certified:
        rep = conductor_from_components(fx.curve, args.seed)
    else:
        rep = conductor_nodal(fx.curve.total_form, args.seed)
    d = rep.as_dict()
    _emit(
        {"command": "conductor", "prime": fx.ring.p, "report": d, "seed": args.seed},
        args.json,
        [f"{k}: {v}" for k, v in d.items()],
    )
    return 0


def _run_fixture_statement(statement, seed, cap, fx, fixture_path, **params):
    """Run a statement on a loaded fixture, retrying at the second prime when
    the fixture's characteristic divides the curve degree.  Statements on one
    fixture share its ring and basis cache; only the retry parses again, with
    the same degree cap."""
    try:
        return run_statement(
            statement, seed=seed, prime=fx.ring.p, cap=cap, fixture=fx, **params
        )
    except CharacteristicError:
        fx = _load_fixture(fixture_path, SECOND_PRIME, cap)
        rep = run_statement(
            statement,
            seed=seed,
            prime=SECOND_PRIME,
            cap=cap,
            fixture=fx,
            **params,
        )
        rep.notes = rep.notes + (
            f"characteristic divided the degree; reran at {SECOND_PRIME}",
        )
        return rep


def _verify_params(statement: str, args) -> dict:
    """The size flags given that the statement's runner takes."""
    takes = inspect.signature(STATEMENTS[statement]).parameters
    return {
        name: getattr(args, name)
        for name in _SIZE_FLAGS
        if name in takes and getattr(args, name) is not None
    }


def _cmd_verify(args) -> int:
    if bool(args.statement) == bool(args.all):
        print(
            "verify needs exactly one of --statement <id> or --all",
            file=sys.stderr,
        )
        return 2
    ids = list(STATEMENTS) if args.all else [args.statement]
    unknown = [s for s in ids if s not in STATEMENTS]
    if unknown:
        print(
            f"unknown statement {unknown[0]!r}; valid ids: "
            + ", ".join(STATEMENTS),
            file=sys.stderr,
        )
        return 2
    primes = [args.prime if args.prime is not None else DEFAULT_PRIME]
    if args.second_prime:
        primes.append(SECOND_PRIME)
    fixtures = {}
    if args.fixture is not None:
        fixtures = {
            p: _load_fixture(args.fixture, p, args.degree_cap) for p in primes
        }
    reports = []
    for statement in ids:
        for p in primes:
            params = _verify_params(statement, args)
            if args.fixture is not None:
                reports.append(
                    _run_fixture_statement(
                        statement, args.seed, args.degree_cap,
                        fixtures[p], args.fixture, **params,
                    )
                )
            else:
                reports.append(
                    run_statement(
                        statement,
                        seed=args.seed,
                        prime=p,
                        cap=args.degree_cap,
                        **params,
                    )
                )
    ok = all(r.ok for r in reports)
    lines = [r.summary_line() for r in reports]
    for r in reports:
        if not r.ok:
            lines.append(
                f"  {r.statement}: computed "
                + json.dumps(r.computed, sort_keys=True)
            )
            lines.append(
                f"  {r.statement}: expected "
                + json.dumps(r.expected, sort_keys=True)
            )
    _emit(
        {"command": "verify", "reports": [r.as_dict() for r in reports]},
        args.json,
        lines,
    )
    return 0 if ok else 1


def _corpus_statements(fx) -> tuple:
    if fx.curve is None:
        return ("cm-regularity-crosscheck",)
    if len(fx.curve) >= 2:
        return CURVE_STATEMENTS
    return SINGLE_CURVE_STATEMENTS


def _cmd_corpus(args) -> int:
    directory = args.directory
    if not directory.is_dir():
        raise ParseError(f"not a directory: {directory}")
    paths = sorted(directory.glob("*.fix"))
    if not paths:
        raise ParseError(f"no .fix fixtures under {directory}")
    results = []
    ok = True
    for path in paths:
        fx = _load_fixture(path, args.prime, args.degree_cap)
        reports = []
        for statement in _corpus_statements(fx):
            if statement == "cm-regularity-crosscheck":
                rep = cm_regularity_crosscheck(_fixture_ideal(fx))
            else:
                rep = _run_fixture_statement(
                    statement, args.seed, args.degree_cap, fx, path
                )
            reports.append(rep)
            ok = ok and rep.ok
        results.append((path.name, reports))
    lines = []
    width = max(len(name) for name, _ in results)
    for name, reports in results:
        for rep in reports:
            mark = "pass" if rep.ok else "FAIL"
            lines.append(f"{name.ljust(width)}  {mark}  {rep.statement}")
    lines.append(
        f"{len(results)} fixtures, "
        f"{sum(len(r) for _, r in results)} checks, "
        + ("all passing" if ok else "FAILURES present")
    )
    _emit(
        {
            "command": "corpus",
            "pass": ok,
            "results": [
                {"fixture": name, "reports": [r.as_dict() for r in reports]}
                for name, reports in results
            ],
        },
        args.json,
        lines,
    )
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.prime is not None:
        try:
            check_characteristic(args.prime)
        except CharacteristicError as e:
            print(f"invalid input: --prime: {e}", file=sys.stderr)
            return 2
    try:
        check_degree_cap(args.degree_cap)
    except ExponentLimitError as e:
        print(f"invalid input: --degree-cap: {e}", file=sys.stderr)
        return 2
    handlers = {
        "gb": _cmd_gb,
        "resolve": _cmd_resolve,
        "betti": _cmd_betti,
        "hilbert": _cmd_hilbert,
        "conductor": _cmd_conductor,
        "verify": _cmd_verify,
        "corpus": _cmd_corpus,
    }
    try:
        return handlers[args.command](args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except DegreeCapExceeded as e:
        print(f"aborted by degree cap: {e}", file=sys.stderr)
        return 3
    except (NonNodalCurveError, RetryBudgetExceeded) as e:
        print(f"certificate failure: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return 2
    except NodalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
