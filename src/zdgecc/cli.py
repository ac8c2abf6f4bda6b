"""Command-line front end: single-n spectra, theorem audits, range surveys.

Reports are read from the class model of (n, variant); only ``spectrum
--dump-graph``/``--dump-matrix`` builds the V x V graph and matrix, and
only for the dumped files.

Exit codes: 0 success (audits: no unexpected refutations); 1 audit refutation
mismatch; 2 usage or domain error (prime modulus, unknown theorem, a bad
``--expect-refutations`` spec, found before any audit runs); 3 exact
computation requested above the order cap, input too large to build in
memory, or a survey worker that could not start or ended without a result;
4 unwritable output path.
"""

from __future__ import annotations

import argparse
import functools
# argparse's gettext imports locale on the first parse; importing it at
# start-up keeps that cost out of the first command's run time.
import locale  # noqa: F401
import math
import os
import sys
from pathlib import Path

from zdgecc import claims, report, survey
from zdgecc.eccentricity import eccentricity_matrix
from zdgecc.graphs import Decomposition, EmptyGraphError, to_adjacency_text
from zdgecc.spectra import DEFAULT_CLUSTER_TOL, DEFAULT_EXACT_CAP, OversizeError, spectrum

EXIT_OK = 0
EXIT_AUDIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_OVERSIZE = 3
EXIT_OUTPUT = 4


def _emit(text: str, output: str | None) -> int:
    if output is None or output == "-":
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {output}: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    return EXIT_OK


def _render(items: list[dict], command: str, as_csv: bool, extra: dict | None = None) -> str:
    if as_csv:
        return report.to_csv(items)
    env = report.envelope(command, items)
    if extra:
        env.update(extra)
    return report.to_json(env)


def cmd_spectrum(args) -> int:
    # the report is read from the class model; a --dump-* request builds the
    # V x V graph and matrix for its files only, before anything is written
    try:
        model = Decomposition.of(args.n, args.variant)
    except EmptyGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        spec = spectrum(model, args.method, exact_cap=args.exact_cap,
                        cluster_tol=args.cluster_tol)
    except OversizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVERSIZE
    method = "exact" if spec.certificate is not None else "float"
    dumps = []
    if args.dump_graph or args.dump_matrix:
        # the boolean adjacency, and with the matrix its int64 E too
        graph = model.dense(bytes_per_cell=9 if args.dump_matrix else 1)
        if args.dump_graph:
            dumps.append((to_adjacency_text(graph), args.dump_graph))
        if args.dump_matrix:
            rows = eccentricity_matrix(graph).tolist()
            dumps.append(("\n".join(" ".join(map(str, row)) for row in rows) + "\n",
                          args.dump_matrix))
    structure = report.structure_fields(model)
    item = {
        "kind": "spectrum",
        "n": args.n,
        "variant": args.variant,
        "method": method,
        **structure,
        **report.spectral_fields(model, spec, structure["connected"]),
        "spectrum": report.spectrum_json(spec),
    }
    exact_energy = spec.energy_exact()
    if exact_energy is not None:
        item["energy_exact"] = str(exact_energy)
    if method == "exact":
        item["char_poly"] = spec.certificate.poly.text()
        item["integral"] = spec.certificate.integral
        item["factorization"] = spec.certificate.text()
    for text, path in dumps:
        rc = _emit(text, path)
        if rc:
            return rc
    return _emit(_render([item], _command_echo(args), args.csv), args.output)


def _parse_expected(raw: str, theorems: list[str]) -> set[str] | None:
    if os.path.isfile(raw):
        try:
            raw = ",".join(Path(raw).read_text().splitlines())
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read {raw}: {exc}", file=sys.stderr)
            return None
    tokens = [tok.strip() for tok in raw.split(",") if tok.strip()]
    out = set()
    for tok in tokens:
        if ":" not in tok:
            if len(theorems) != 1:
                print(
                    f"error: bare token {tok!r} is ambiguous when auditing "
                    "multiple theorems; use theorem:param form",
                    file=sys.stderr,
                )
                return None
            tok = f"{theorems[0]}:{tok}"
        out.add(tok)
    return out


def cmd_audit(args) -> int:
    theorems = list(claims.THEOREM_IDS) if args.theorem == "all" else [args.theorem]
    expected = None
    if args.expect_refutations is not None:
        # a bad spec is a usage error, found before any audit runs
        expected = _parse_expected(args.expect_refutations, theorems)
        if expected is None:
            return EXIT_USAGE
    verdicts: list[claims.AuditVerdict] = []
    for theorem in theorems:
        for params in claims.CLAIMS[theorem].family.enumerate(args):
            verdicts.append(
                claims.audit(theorem, params, args.tol, exact_cap=args.exact_cap)
            )
    items = [
        {
            "kind": "audit",
            "theorem": v.claim_id,
            "params": dict(v.params),
            "verdict": v.verdict.value,
            "evidence": v.evidence,
        }
        for v in verdicts
    ]
    refutations = sorted(
        v.key()
        for v in verdicts
        if v.verdict in (claims.Verdict.REFUTED, claims.Verdict.MALFORMED_CLAIM)
    )
    text = _render(
        items, _command_echo(args), args.csv, extra={"refutations": refutations}
    )
    rc = _emit(text, args.output)
    if rc:
        return rc
    if expected is not None:
        if set(refutations) != expected:
            missing = sorted(expected - set(refutations))
            surplus = sorted(set(refutations) - expected)
            print(
                f"audit mismatch: missing={missing} unexpected={surplus}",
                file=sys.stderr,
            )
            return EXIT_AUDIT_MISMATCH
        return EXIT_OK
    return EXIT_OK if not refutations else EXIT_AUDIT_MISMATCH


def cmd_survey(args) -> int:
    cache_dir = None
    if args.cache or args.cache_dir:
        cache_dir = args.cache_dir or os.environ.get("ZDG_CACHE_DIR") or ".zdgecc-cache"
    try:
        records = survey.run_survey(
            args.max_n,
            args.variant,
            workers=args.workers,
            structure_only=args.structure_only,
            exact_cap=args.exact_cap,
            cluster_tol=args.cluster_tol,
            cache_dir=cache_dir,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except survey.WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVERSIZE
    except OSError as exc:
        if cache_dir is None:
            raise
        print(f"error: cannot write cache {cache_dir}: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    # echo only payload-determining options so reports stay byte-identical
    # across worker counts and cache settings
    echo = (
        f"survey --max-n {args.max_n} --variant {args.variant}"
        f" --exact-cap {args.exact_cap} --cluster-tol {args.cluster_tol:g}"
    )
    if args.structure_only:
        echo += " --structure-only"
    return _emit(_render(records, echo, args.csv), args.output)


def _command_echo(args) -> str:
    return " ".join(args._argv)


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


@functools.cache  # built once per process; parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zdgecc",
        description="Eccentricity spectra of zero-divisor graphs of Z_n, "
        "with exact arithmetic and closed-form claim audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--exact-cap", type=_nonnegative_int, default=DEFAULT_EXACT_CAP,
                       help="largest matrix order (>= 0) for exact arithmetic")
        p.add_argument("--csv", action="store_true", help="flat CSV instead of JSON")
        p.add_argument("--output", help="write the report here instead of stdout")

    def cluster_tol(p):
        p.add_argument("--cluster-tol", type=_tolerance, default=DEFAULT_CLUSTER_TOL,
                       help="absolute tolerance (finite, >= 0) for float multiplicity "
                       "clustering")

    p_spec = sub.add_parser("spectrum", help="spectrum of one modulus")
    p_spec.add_argument("--n", type=int, required=True)
    p_spec.add_argument("--variant", choices=survey.VARIANTS, default="zdg")
    p_spec.add_argument("--method", choices=("exact", "float", "auto"), default="auto")
    p_spec.add_argument("--dump-graph", metavar="PATH",
                        help="write adjacency-list text ('-' for stdout)")
    p_spec.add_argument("--dump-matrix", metavar="PATH",
                        help="write the eccentricity matrix rows ('-' for stdout)")
    cluster_tol(p_spec)
    common(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    p_audit = sub.add_parser("audit", help="audit claimed closed forms")
    p_audit.add_argument("--theorem", required=True,
                         choices=claims.THEOREM_IDS + ("all",))
    p_audit.add_argument("--primes-up-to", type=int, default=13)
    p_audit.add_argument("--primes-from", type=int, default=3,
                         help="smallest prime for pair families")
    p_audit.add_argument("--primes", type=lambda s: [int(x) for x in s.split(",")],
                         help="explicit prime list, e.g. 3,5,7")
    p_audit.add_argument("--max-n", type=int, default=100,
                         help="modulus range for the tree-structure audits")
    p_audit.add_argument("--max-power", type=_nonnegative_int, default=128,
                         help="largest p^t (>= 0) for the prime-power audits")
    p_audit.add_argument("--tol", type=_tolerance, default=1e-7,
                         help="absolute tolerance (finite, >= 0) for claimed values")
    p_audit.add_argument("--expect-refutations", metavar="SPEC",
                         help="comma list or file of expected refutation keys; "
                         "exit 0 only on an exact match")
    common(p_audit)
    p_audit.set_defaults(func=cmd_audit)

    p_survey = sub.add_parser("survey", help="survey all composite n up to a bound")
    p_survey.add_argument("--max-n", type=int, required=True)
    p_survey.add_argument("--variant", choices=survey.VARIANTS, default="zdg")
    p_survey.add_argument("--workers", type=_positive_int, default=1,
                          help="processes (>= 1): this one plus forked children")
    p_survey.add_argument("--structure-only", action="store_true",
                          help="graph flags only; skip spectra and integrality")
    p_survey.add_argument("--cache", action="store_true",
                          help="cache records on disk (see ZDG_CACHE_DIR)")
    p_survey.add_argument("--cache-dir", help="cache records here (implies --cache)")
    cluster_tol(p_survey)
    common(p_survey)
    p_survey.set_defaults(func=cmd_survey)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    try:
        return args.func(args)
    except MemoryError as exc:  # a survey re-raises its forked children's errors here
        print(f"error: too large to build in memory: {exc}", file=sys.stderr)
        return EXIT_OVERSIZE


if __name__ == "__main__":
    sys.exit(main())
