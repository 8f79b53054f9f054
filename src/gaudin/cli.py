"""Command line front end: decompose | verify | singular | eigenbasis | bethe.

Reads a model instance from a JSON file ({"weights": [...], "z": ["p/q", ...]})
and emits machine-readable reports.  Exit codes: 0 ok, 1 verification failure,
2 input error, 3 numerical failure.  Identical configuration and seed produce
byte-identical JSON.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

import numpy as np

from .bethe import solve_bethe
from .eigenbasis import DEFAULT_TOL, CompletenessError, DiagonalizationError, InvarianceError, build_eigenbasis
from .hamiltonians import _site_scales, _verified_levels
from .singular import (
    singular_basis_gordan,
    singular_basis_kernel,
    singular_dimension,
    singular_dimension_formula,
)
from .rational_linalg import rank
from .sl2 import (
    DEFAULT_SEED,
    ModelSpec,
    _exact_dtype,
    _gather_sum,
    _pad,
    _raising_gathers,
    enumerate_weight_space,
    weight_space_dimension_formula,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _complex_pair(value) -> list:
    value = complex(value)
    return [float(value.real), float(value.imag)]


def _load_spec(path: str) -> ModelSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return ModelSpec.from_json(handle.read())


_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _json_text(payload) -> str:
    r"""json.dumps(payload, indent=2, sort_keys=True) + "\n", laid out from the C encoder's compact text.

    The compact text is ASCII without control bytes (ensure_ascii escapes
    them), and every backslash in it starts an escape: with each \\ and then
    each \" replaced by two neutral bytes, the quotes left delimit the strings.
    Outside them each [ { , is followed by a gap of a newline and two spaces
    per depth after it, each ] } is preceded by one, none inside [] or {}, and
    each : is followed by one space.
    """
    raw = _COMPACT.encode(payload).encode("ascii")
    masked = np.frombuffer(raw.replace(b"\\\\", b"__").replace(b'\\"', b"__"), np.uint8)
    raw = np.frombuffer(raw, np.uint8)
    outside = ~np.logical_xor.accumulate(masked == ord('"'))
    # with bit 0x20 set, [ and ] read as { and }, and only control bytes read as , or :
    low = masked | 0x20
    pos = np.flatnonzero(outside & ((low == ord("{")) | (low == ord("}")) | (low == ord(",")) | (low == ord(":"))))
    char = low[pos]
    opens, closes, colons = char == ord("{"), char == ord("}"), char == ord(":")
    # the bytes of each gap: a newline and two spaces per depth after the character
    size = 1 + 2 * np.cumsum(opens.view(np.int8) - closes.view(np.int8), dtype=np.int32)
    empty = opens[:-1] & closes[1:] & (np.diff(pos) == 1)
    size[:-1][empty] = size[1:][empty] = 0
    size[colons] = 1
    # each gap goes before the byte at point, and the byte at j of raw to dest[j] of the output
    point = pos + ~closes
    dest = np.ones(raw.size, np.int32)
    dest[0] = 0
    dest[point] = 1 + size
    np.cumsum(dest, out=dest)
    gap = dest[point] - size
    out = np.full(int(dest[-1]) + 2, ord(" "), np.uint8)
    out[gap] = out[-1] = ord("\n")
    out[gap[colons]] = ord(" ")
    out[dest] = raw  # last: an empty pair's gaps of size 0 start at bytes of raw
    return str(out, "ascii")


def _emit(payload: dict, csv_rows, args) -> None:
    if args.format == "json":
        text = _json_text(payload)
    else:
        header, rows = csv_rows
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.format} report to {args.out}")
    else:
        sys.stdout.write(text)


def cmd_decompose(args) -> int:
    spec = _load_spec(args.spec)
    dims = []
    for m in range(spec.total_weight + 1):
        dim = enumerate_weight_space(spec, m).dim
        binom = weight_space_dimension_formula(spec.n_sites, m)
        dims.append({"m": m, "dim": dim, "binomial": binom, "truncated": dim < binom})
    payload = {
        "weights": list(spec.weights),
        "z": [str(x) for x in spec.z],
        "dims": dims,
    }
    rows = [[d["m"], d["dim"], d["binomial"], d["truncated"]] for d in dims]
    _emit(payload, (["m", "dim", "binomial", "truncated"], rows), args)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.emit_matrices and args.format == "csv":
        print("error: --emit-matrices needs --format json: the CSV report has no place for matrices", file=sys.stderr)
        return EXIT_INPUT
    spec = _load_spec(args.spec)
    scales = _site_scales(spec.z)
    per_m = []
    matrices = []
    all_ok = True
    for m, family, report in _verified_levels(spec):
        per_m.append(
            {
                "m": m,
                "commuting": report.commuting,
                "sum_zero": report.sum_zero,
                "symmetry_commute": report.symmetry_commute,
            }
        )
        all_ok = all_ok and report.all_ok
        if args.emit_matrices:
            for i, scale in enumerate(scales):
                # H_i is D_i H_i over D_i, in lowest terms; a D_i past int64 makes the reduction Python ints
                rows, cols, values = family.summed(i)
                scale = np.array(scale, dtype=_exact_dtype(scale))
                common = np.gcd(values, scale)
                fractions = zip(rows.tolist(), cols.tolist(), (values // common).tolist(), (scale // common).tolist())
                triplets = [[row, col, f"{num}/{den}" if den != 1 else str(num)] for row, col, num, den in fractions]
                matrices.append({"m": m, "i": i + 1, "triplets": triplets})  # 1-based site label on the wire
    payload = {"per_m": per_m, "all_ok": all_ok}
    if args.emit_matrices:
        payload["matrices"] = matrices
    rows = [[d["m"], d["commuting"], d["sum_zero"], d["symmetry_commute"]] for d in per_m]
    _emit(payload, (["m", "commuting", "sum_zero", "symmetry_commute"], rows), args)
    return EXIT_OK if all_ok else EXIT_VERIFY


def cmd_singular(args) -> int:
    spec = _load_spec(args.spec)
    m = args.m
    if m is None:
        print("error: --m is required for the singular command", file=sys.stderr)
        return EXIT_INPUT
    kernel = singular_basis_kernel(spec, m)
    if m <= spec.min_weight:
        basis = singular_basis_gordan(spec, m)
        method = "gordan"
        gordan_rows = [list(v) for v in basis.vectors]
        span_ok = (
            rank(gordan_rows)
            == rank(gordan_rows + [list(v) for v in kernel.vectors])
            == len(kernel.vectors)
            == basis.count
        )
    else:
        basis = kernel
        method = "kernel"
        span_ok = True
    block = np.array(basis.vectors, dtype=object).reshape(basis.count, enumerate_weight_space(spec, m).dim).T
    annihilated = not (_gather_sum(_pad(block), *_raising_gathers(spec.weights, m)) != 0).any()
    vectors = []
    for j, vec in enumerate(basis.vectors):
        vectors.append(
            {
                "composition": list(basis.labels[j]) if basis.labels else None,
                "vector": [str(x) for x in vec],
            }
        )
    payload = {
        "m": m,
        "method": method,
        "count": basis.count,
        "dim_formula": singular_dimension_formula(spec.n_sites, m),
        "annihilated": annihilated,
        "span_matches_kernel": span_ok,
        "vectors": vectors,
    }
    rows = []
    for j, entry in enumerate(vectors):
        comp = "|".join(str(k) for k in entry["composition"]) if entry["composition"] else ""
        for pos, val in enumerate(entry["vector"]):
            rows.append([m, j, comp, pos, val])
    _emit(payload, (["m", "vector_index", "composition", "entry_index", "value"], rows), args)
    return EXIT_OK if (annihilated and span_ok) else EXIT_VERIFY


def cmd_eigenbasis(args) -> int:
    spec = _load_spec(args.spec)
    m_max = args.m_max if args.m_max is not None else spec.min_weight
    basis = build_eigenbasis(spec, m_max, seed=args.seed)
    levels = []
    rows = []
    for m, level in enumerate(basis.levels):
        vectors = []
        for j, vec in enumerate(level):
            entry = {
                "coords": [_complex_pair(c) for c in vec.coords],
                "eigenvalues": [_complex_pair(s) for s in vec.eigenvalues],
                "origin": vec.origin,
                "residual": vec.residual,
            }
            vectors.append(entry)
            eigenvalues = [x for pair in entry["eigenvalues"] for x in pair]
            rows.append([m, j, entry["origin"], entry["residual"]] + eigenvalues)
        levels.append({"m": m, "vectors": vectors})
    payload = {"m_max": m_max, "levels": levels}
    header = ["m", "vector_index", "origin", "residual"]
    for i in range(spec.n_sites):
        header.extend([f"eigenvalue_{i}_re", f"eigenvalue_{i}_im"])
    _emit(payload, (header, rows), args)
    return EXIT_OK


def cmd_bethe(args) -> int:
    spec = _load_spec(args.spec)
    m = args.m
    if m is None:
        print("error: --m is required for the bethe command", file=sys.stderr)
        return EXIT_INPUT
    solutions = solve_bethe(spec, m, seed=args.seed)
    scalar_keys = ["residual_eq", "singular_residual", "vector_residual", "multiplicity_flag"]
    entries = []
    rows = []
    for j, sol in enumerate(solutions):
        entry = {
            "roots": [_complex_pair(w) for w in sol.roots],
            "eigenvalues": [_complex_pair(s) for s in sol.eigenvalues],
            "residual_eq": sol.residual_eq,
            "singular_residual": sol.singular_residual,
            "vector_residual": sol.vector_residual,
            "multiplicity_flag": sol.multiplicity_flag,
        }
        entries.append(entry)
        pairs = [x for pair in entry["roots"] + entry["eigenvalues"] for x in pair]
        rows.append([m, j] + [entry[key] for key in scalar_keys] + pairs)
    payload = {
        "m": m,
        "solutions": entries,
        "expected_count": singular_dimension(spec, m),
        "found": len(solutions),
    }
    header = ["m", "solution_index"] + scalar_keys
    for k in range(m):
        header.extend([f"root_{k}_re", f"root_{k}_im"])
    for i in range(spec.n_sites):
        header.extend([f"eigenvalue_{i}_re", f"eigenvalue_{i}_im"])
    _emit(payload, (header, rows), args)
    verified = all(
        sol.singular_residual <= DEFAULT_TOL and sol.vector_residual <= DEFAULT_TOL for sol in solutions
    )
    return EXIT_OK if verified else EXIT_VERIFY


# every optional flag with its argparse settings; each command takes the ones it reads
_FLAGS = {
    "--m": dict(type=int, default=None, help="spin deviation level"),
    "--m-max": dict(dest="m_max", type=int, default=None),
    "--seed": dict(type=int, default=DEFAULT_SEED),
    "--emit-matrices": dict(
        dest="emit_matrices",
        action="store_true",
        help="include exact Hamiltonian matrices as triplets",
    ),
}

_COMMANDS = {
    "decompose": (cmd_decompose, ()),
    "verify": (cmd_verify, ("--emit-matrices",)),
    "singular": (cmd_singular, ("--m",)),
    "eigenbasis": (cmd_eigenbasis, ("--m-max", "--seed")),
    "bethe": (cmd_bethe, ("--m", "--seed")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaudin",
        description="SL(2) Gaudin model toolkit: exact weight-space algebra and Bethe root finding",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True, help="path to the model JSON file")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.set_defaults(func=func)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process; each parse_args fills a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InvarianceError as exc:  # a ValueError, but a failed exact check, not bad input
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (OSError, json.JSONDecodeError, KeyError, ValueError, ZeroDivisionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DiagonalizationError, CompletenessError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
