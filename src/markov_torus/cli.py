"""Command-line front end: construction, verifiers, coding, and figures.

Commands: analyze | construct | verify | encode | decode | periodic |
multmap | render.  Reports print as text by default and as schema-versioned
JSON under ``--json``; ``--svg PATH`` writes the universal-cover figure.

Exit status is 0 exactly when everything requested passed, 1 on a failed
verification or an unusable request (inadmissible word, capped depth), and
2 when the input matrix is rejected as non-hyperbolic or non-unimodular.

Word-enumeration commands cap their depth (default 8); the environment
variable ``MARKOV_TORUS_MAX_DEPTH`` overrides the cap.  ``verify`` also
counts the words of each walk before it starts and refuses a request whose
walk would exceed ``WALK_WORD_BUDGET`` words.  ``decode`` refuses, by the
same cap, a word whose window lies more than that many steps from time 0:
its cylinder is moved to time 0 by that many exact powers of the map, whose
size grows with the distance.

Commands that build the construction refuse a matrix whose refined
partition would have more than ``MARKOV_TORUS_MAX_CELLS`` cells (default
800), before building anything: N*, the sum of the model matrix's entries,
is known once the matrix is conjugated.  The build itself grows about like
N*, but printing the N* x N* graph and the first walk or decode like N*^2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Iterator, Sequence

from . import construct
from .basis import EigenRect
from .coding import BoundaryAmbiguity, CodingContext, SymbolicWord
from .construct import (
    ConjugationResult,
    MarkovConstruction,
    build_markov_construction,
    count_intersections,
)
from .multmap import ExpansionAmbiguity, MultiplicationSystem
from .partition import TorusPartition
from .render import (
    SCHEMA_VERSION,
    analyze_report,
    construction_report,
    quad_json,
    render_construction_svg,
    report_header,
)
from .torus import (
    InvariantError,
    Mat2Z,
    NotAutomorphismError,
    NotHyperbolicError,
    hyperbolic_check,
)
from .walk import (
    CellAreaSum,
    NfoldCount,
    WindowCheck,
    count_words,
    verify_areas,
    verify_boundary_alignment,
    verify_generator_decay,
    verify_translate_disjoint,
    walk_words,
)
# Replaced in ``verify`` by the shared walks, but kept importable from this
# module: perfbench/tracing.py wraps them here by name.
from .walk import refinement_cells_depth, verify_nfold_range  # noqa: F401

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_REJECT = 2

DEFAULT_ENUM_CAP = 8
ENUM_CAP_ENV = "MARKOV_TORUS_MAX_DEPTH"

# refined cells (N*) a build may have: on a 2-core host (Python 3.11) the build
# takes 0.12 s at N* 3,200 and `construct` 0.22 and 0.29 s at N* 402 and 800,
# but the first walk or decode still assembles about N*^2 refined row entries
# (`decode` on N* 800 takes 4.8-5.4 s and 813 MB), so 800 stays
DEFAULT_CELL_CAP = 800
CELL_CAP_ENV = "MARKOV_TORUS_MAX_CELLS"

# words one `verify` walk may visit; counted before walking, so that an
# oversized request fails at once instead of running for minutes
WALK_WORD_BUDGET = 1_000_000

# commands whose work grows with the word tree, hence fall under the cap
_ENUMERATING_COMMANDS = frozenset({"verify", "render"})


class CliError(Exception):
    """A request that cannot be served; message is printed, exit status 1."""


def _env_cap(name: str, default: int) -> int:
    """The positive integer in environment variable ``name``, or ``default``
    when it is unset."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError as exc:
        raise CliError(f"{name} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise CliError(f"{name} must be >= 1, got {cap}")
    return cap


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation; depth bounds are validated on construction."""

    command: str
    matrix: Mat2Z | None = None
    depth: int | None = None
    json_out: bool = False
    svg_path: str | None = None
    point: tuple[Fraction, ...] | None = None
    word: str | None = None
    max_words: int = 8
    base: int = 2
    inject_break: bool = False
    enum_cap: int = DEFAULT_ENUM_CAP
    cell_cap: int = DEFAULT_CELL_CAP

    def __post_init__(self):
        if self.depth is not None and self.depth < 0:
            raise CliError("--depth must be >= 0")
        if self.max_words < 1:
            raise CliError("--max-words must be >= 1")
        if (self.command in _ENUMERATING_COMMANDS and self.depth is not None
                and self.depth > self.enum_cap):
            raise CliError(
                f"--depth {self.depth} exceeds the enumeration cap "
                f"{self.enum_cap}; set {ENUM_CAP_ENV} to raise it"
            )


# -- parsing helpers -----------------------------------------------------------


def parse_matrix(text: str) -> Mat2Z:
    parts = text.replace(",", " ").split()
    if len(parts) != 4:
        raise CliError(f'--matrix needs four integers "a b c d", got {text!r}')
    try:
        a, b, c, d = (int(p) for p in parts)
    except ValueError as exc:
        raise CliError(f"--matrix entries must be integers: {exc}") from exc
    return Mat2Z(a, b, c, d)


def parse_rationals(text: str, count: int) -> tuple[Fraction, ...]:
    parts = text.split()
    if len(parts) != count:
        raise CliError(
            f'--point needs {count} rational number(s) like "1/3", got {text!r}'
        )
    try:
        return tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"--point has a bad rational: {exc}") from exc


def parse_digits(text: str, base: int) -> tuple[int, ...]:
    try:
        digits = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise CliError(f'--word for multmap must look like "1,0,1": {exc}') from exc
    if not digits:
        raise CliError("--word must contain at least one digit")
    for d in digits:
        if not 0 <= d < base:
            raise CliError(f"digit {d} out of range for base {base}")
    return digits


def _exact(x, what: str, fix: str) -> str:
    """``str(x)``, refused as a :class:`CliError` that says ``what`` (it
    has) and ``fix`` where x has more digits than this interpreter prints."""
    try:
        return str(x)
    except ValueError as exc:
        raise CliError(f"{what} more digits than the {sys.get_int_max_str_digits()} "
                       f"this interpreter prints; {fix}") from exc


def _emit(payload: dict, lines: Sequence[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


# -- commands ------------------------------------------------------------------


def _check_cells(cfg: RunConfig) -> ConjugationResult:
    """The matrix's reduction, for the build to reuse; refuses a matrix
    whose refined partition would have more than ``cfg.cell_cap`` cells,
    before any overlap table is built.  Called through the module, where
    perfbench/tracing.py wraps it."""
    conj = construct.conjugate_nonnegative(cfg.matrix)
    model = conj.model
    cells = model.a + model.b + model.c + model.d
    if cells > cfg.cell_cap:
        raise CliError(
            f"the refined partition would have N* = {cells} cells, more than "
            f"the cell cap {cfg.cell_cap}; set {CELL_CAP_ENV} to raise it"
        )
    return conj


def _construction(cfg: RunConfig) -> MarkovConstruction:
    return build_markov_construction(cfg.matrix, _check_cells(cfg))


def cmd_analyze(cfg: RunConfig) -> int:
    try:
        eig = hyperbolic_check(cfg.matrix)
    except (NotAutomorphismError, NotHyperbolicError) as exc:
        payload = {**report_header(cfg.matrix), "hyperbolic": False,
                   "reason": str(exc)}
        _emit(payload, [f"rejected: {exc}"], cfg.json_out)
        return EXIT_REJECT
    rep = analyze_report(cfg.matrix, eig)
    cf = rep["slope_continued_fraction"]
    lines = [
        f"matrix {rep['matrix']}: hyperbolic, det {rep['determinant']}, "
        f"trace {rep['trace']}, discriminant {rep['discriminant']}",
        f"lambda = {rep['lambda']['exact']} ~ {rep['lambda']['decimal']}",
        f"mu     = {rep['mu']['exact']} ~ {rep['mu']['decimal']}",
        f"expanding slope   = {rep['slope_lambda']['exact']} "
        f"~ {rep['slope_lambda']['decimal']}",
        f"contracting slope = {rep['slope_mu']['exact']} "
        f"~ {rep['slope_mu']['decimal']}",
        f"expansive constant |mu|/8 ~ {rep['expansive_constant']['decimal']}",
        f"expanding-slope continued fraction: preperiod {list(cf['preperiod'])}, "
        f"period {list(cf['period'])} repeating",
        f"sign case {rep['case']}"
        + (" (contracting slide required)" if rep["case"].endswith("MINUS") else ""),
    ]
    _emit(rep, lines, cfg.json_out)
    return EXIT_OK


def _construction_lines(rep: dict) -> list[str]:
    lines = [
        f"matrix {rep['matrix']} = epsilon * C^-1 P C with epsilon "
        f"{rep['epsilon']}, C {rep['C']}, P {rep['P']}",
        f"sign case {rep['case']}, contracting slide rho = "
        f"{rep['rho']['exact']} ~ {rep['rho']['decimal']}",
        f"two-cell multiplicity graph {rep['graph_2node']['entries']} on "
        f"labels {rep['graph_2node']['labels']}",
        f"refined partition: {rep['graph_Nstar']['size']} cells",
    ]
    for cell in rep["cells"]:
        first = cell["corners"][0]
        lines.append(
            f"  {cell['label']:<10} corner ({first['x']['decimal']}, "
            f"{first['y']['decimal']})"
        )
    lines.append("corner points:")
    for point in rep["corner_points"]:
        lines.append(
            f"  {point['name']:<6} ({point['x']['decimal']}, "
            f"{point['y']['decimal']})"
        )
    for name, ok in rep["verifier_results"].items():
        lines.append(f"check {name}: {'pass' if ok else 'FAIL'}")
    return lines


def _write_figure(svg: str, path: str) -> str:
    """Writes ``svg`` to ``path``; returns the line that reports it."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(svg)
    except OSError as exc:
        raise CliError(f"cannot write the figure to {path}: "
                       f"{exc.strerror or exc}") from exc
    return f"figure written to {path}"


def cmd_construct(cfg: RunConfig) -> int:
    construction = _construction(cfg)
    rep = construction_report(construction)
    lines = _construction_lines(rep)
    if cfg.svg_path:
        lines.append(_write_figure(render_construction_svg(construction), cfg.svg_path))
    _emit(rep, lines, cfg.json_out)
    return EXIT_OK


def _break_partition(part: TorusPartition) -> TorusPartition:
    """Negative control: shrink the first cell so area/boundary checks fail."""
    first = part.boxes[0]
    dent = first.u_dim * Fraction(1, 64)
    boxes = (EigenRect(first.u_lo, first.u_hi - dent, first.w_lo, first.w_hi),
             ) + part.boxes[1:]
    return TorusPartition(part.frame, part.acting, part.lam_act, part.mu_act,
                          boxes, part.labels)


# -- verify's checks ------------------------------------------------------------
# Each returns (ok, detail).  They call the verifiers through this module's
# globals, where perfbench/tracing.py wraps them by name.


def check_counts(construction: MarkovConstruction) -> tuple[bool, str]:
    model, cells = construction.model, construction.refined.n
    got = [list(r) for r in count_intersections(construction.base).matrix]
    expected = [[model.a, model.b], [model.c, model.d]]
    total = model.a + model.b + model.c + model.d
    return got == expected and cells == total, (
        f"intersection counts {got} vs model entries {expected}; N* {cells} vs {total}")


def check_areas(part: TorusPartition) -> tuple[bool, str]:
    total = verify_areas(part)
    return (total - 1).sign() == 0, f"total area {total.exact_str()}"


def check_area_sum(area_sum: CellAreaSum) -> tuple[bool, str]:
    cells, total = area_sum.result()  # fed by a walk
    return (total - 1).sign() == 0, f"{cells} cells, total area {total.exact_str()}"


def check_disjoint(part: TorusPartition) -> tuple[bool, str]:
    bad = verify_translate_disjoint(part)
    return not bad, f"{len(bad)} overlap witness(es)" + (
        f", first {bad[0]}" if bad else "")


def check_boundaries(part: TorusPartition) -> tuple[bool, str]:
    witnesses = verify_boundary_alignment(part)
    if witnesses:
        w = witnesses[0]
        return False, (f"{len(witnesses)} witness(es), first {w.kind} "
                       f"of cell {w.cell} uncovered")
    return True, "image boundaries covered exactly"


def check_nfold(nfold: NfoldCount) -> tuple[bool, str]:
    reports = nfold.result()  # fed by a walk
    bad = {n: r.failures for n, r in reports.items() if r.failures}
    words = sum(r.words_checked for r in reports.values())
    if bad:
        return False, f"{words} words; first empty cylinder {bad[min(bad)][0]}"
    return True, (f"lengths {nfold.min_len}..{nfold.max_len}, "
                  f"{words} admissible words nonempty")


def check_decay(part: TorusPartition, depth: int,
                windows: WindowCheck) -> tuple[bool, str]:
    rows = verify_generator_decay(part, depth, windows)  # windows: fed by a walk
    bad = [row for row in rows if not row.ok]
    if bad:
        return False, (f"depth {bad[0].depth}: measured^2 "
                       f"{bad[0].measured_sq.decimal()} > bound^2 "
                       f"{bad[0].bound_sq.decimal()}")
    return True, (f"depths 0..{depth}, final measured diameter "
                  f"{rows[-1].measured:.6g} within bound")


def _run_check(name: str, check: Callable[[], tuple[bool, str]]) -> dict:
    """One report line; a verifier that raises fails its own line only."""
    try:
        ok, detail = check()
    except (InvariantError, ValueError) as exc:
        ok, detail = False, f"verifier aborted: {exc}"
    return {"name": name, "ok": ok, "detail": detail}


def _run_checks(construction: MarkovConstruction, depth: int, cap: int,
                inject_break: bool) -> list[dict]:
    base_part = construction.base.partition
    refined = construction.refined
    if inject_break:
        base_part = _break_partition(base_part)
        refined = _break_partition(refined)
    # one walk of each word tree feeds every check that enumerates words
    reach = min(depth, cap)
    top = max(3, reach)
    area_sums = {k: CellAreaSum(base_part, k) for k in range(2, reach + 1)}
    nfold_base, nfold_refined = NfoldCount(3, top), NfoldCount(3, top)
    windows = WindowCheck(refined, min(depth, 2))
    walks = (("base", base_part, [*area_sums.values(), nfold_base]),
             ("refined", refined, [nfold_refined, windows]))
    for tree, part, visitors in walks:
        max_len = max(v.max_len for v in visitors)
        words = count_words(part, max_len)
        if words > WALK_WORD_BUDGET:
            lower_fits = all(count_words(p, 3) <= WALK_WORD_BUDGET for _, p, _ in walks)
            raise CliError(
                f"--depth {depth} needs the {tree} word tree to length {max_len}: "
                f"{words:,} words, over the budget of {WALK_WORD_BUDGET:,}; "
                + ("use a lower --depth" if lower_fits else
                   "no --depth fits, as every depth walks both trees to length 3"))
    for _, part, visitors in walks:
        walk_words(part, visitors)
    checks = [
        ("counts", partial(check_counts, construction)),
        ("areas_base", partial(check_areas, base_part)),
        ("areas_refined", partial(check_areas, refined)),
        *((f"areas_depth_{k}", partial(check_area_sum, area_sum))
          for k, area_sum in area_sums.items()),
        ("interiors_disjoint", partial(check_disjoint, base_part)),
        ("boundaries_base", partial(check_boundaries, base_part)),
        ("boundaries_refined", partial(check_boundaries, refined)),
        ("nfold_base", partial(check_nfold, nfold_base)),
        ("nfold_refined", partial(check_nfold, nfold_refined)),
        ("generator_decay", partial(check_decay, refined, depth, windows)),
    ]
    return [_run_check(name, check) for name, check in checks]


def cmd_verify(cfg: RunConfig) -> int:
    construction = _construction(cfg)
    depth = cfg.depth if cfg.depth is not None else 4
    checks = _run_checks(construction, depth, cfg.enum_cap, cfg.inject_break)
    all_ok = all(c["ok"] for c in checks)
    payload = {**report_header(cfg.matrix), "depth": depth, "checks": checks,
               "all_ok": all_ok}
    lines = [f"{c['name']:<18} {'PASS' if c['ok'] else 'FAIL'}  {c['detail']}"
             for c in checks]
    lines.append(f"verdict: {'all checks passed' if all_ok else 'FAILURES above'}")
    _emit(payload, lines, cfg.json_out)
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_encode(cfg: RunConfig) -> int:
    if cfg.point is None:
        raise CliError('encode needs --point "p/q r/s"')
    ctx = CodingContext.from_matrix(cfg.matrix, _check_cells(cfg))
    depth = cfg.depth if cfg.depth is not None else 8
    result = ctx.encode(cfg.point, depth)
    preimages = ctx.preimage_report(cfg.point, depth, max_words=cfg.max_words)
    payload = {
        **report_header(cfg.matrix),
        "point": [str(c) for c in cfg.point],
        "depth": depth,
        "preimages": {
            "count": preimages.count,
            "words": [str(w) for w in preimages.words],
            "truncated": preimages.truncated,
        },
    }
    labels = ctx.construction.refined.labels
    if isinstance(result, BoundaryAmbiguity):
        payload.update(ambiguous=True, time=result.time,
                       candidates=list(result.candidates))
        lines = [
            f"no canonical itinerary: iterate {result.time} lies on a cell "
            f"boundary between {[labels[i] for i in result.candidates]}",
        ]
    else:
        payload.update(ambiguous=False, word=str(result),
                       labels=[labels[s] for s in result.symbols])
        lines = [f"word {result}",
                 "cells " + " ".join(labels[s] for s in result.symbols)]
    lines.append(
        f"codings of the point over this window: {preimages.count}"
        + (" (list truncated)" if preimages.truncated else ""))
    for word in preimages.words:
        lines.append(f"  {word}")
    _emit(payload, lines, cfg.json_out)
    return EXIT_OK


def cmd_decode(cfg: RunConfig) -> int:
    if cfg.word is None:
        raise CliError('decode needs --word "i,j,k@-1"')
    try:
        word = SymbolicWord.parse(cfg.word)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    ctx = CodingContext.from_matrix(cfg.matrix, _check_cells(cfg))
    # steps from time 0 to the nearest time of the word's window
    reach = max(0, word.offset, -(word.offset + len(word) - 1))
    if reach > cfg.enum_cap:
        raise CliError(
            f"word {word} lies {reach} steps from time 0, beyond the "
            f"enumeration cap {cfg.enum_cap}; set {ENUM_CAP_ENV} to raise it"
        )
    try:
        res = ctx.decode(word)
    except ValueError as exc:
        raise CliError(f"word {word} is not admissible: {exc}") from exc
    # far from time 0 the exact numbers outgrow a float (OverflowError) or
    # Python's int-to-str digit limit (ValueError)
    try:
        payload = {
            **report_header(cfg.matrix),
            "word": str(word),
            "center": {"x": quad_json(res.center[0]),
                       "y": quad_json(res.center[1])},
            "diam_sq": quad_json(res.diam_sq),
            "diam": f"{res.diam:.12e}",
            "diameter_bound_sq": quad_json(res.diameter_bound_sq),
            "diameter_bound": f"{res.diameter_bound:.12e}",
        }
        lines = [
            f"cylinder of {word}: nonempty, connected",
            f"center ~ ({res.center[0].decimal()}, {res.center[1].decimal()}) "
            "on the model torus",
            f"diameter {res.diam:.6e} <= bound {res.diameter_bound:.6e}",
        ]
    except (OverflowError, ValueError) as exc:
        raise CliError(f"the cylinder of {word} is too large to print: {exc}") from exc
    if cfg.point is not None:
        inside = res.contains(ctx.to_model(cfg.point))
        payload["contains_point"] = inside
        lines.append(
            f"point ({cfg.point[0]}, {cfg.point[1]}) is "
            + ("inside (closed cylinder)" if inside else "outside"))
    _emit(payload, lines, cfg.json_out)
    return EXIT_OK


def _power_traces(mat: Mat2Z, top: int) -> Iterator[int]:
    """tr(M^n) for n = 1..top, by the 2x2 Cayley-Hamilton recurrence
    tr(M^n) = tr M * tr(M^(n-1)) - det M * tr(M^(n-2)), tr(M^0) = 2."""
    t, det = mat.trace(), mat.det()
    prev, cur = 2, t
    for _ in range(top):
        yield cur
        prev, cur = cur, t * cur - det * prev


def cmd_periodic(cfg: RunConfig) -> int:
    construction = _construction(cfg)  # refuses a matrix that is not hyperbolic
    top = cfg.depth if cfg.depth is not None else 6
    if top < 1:
        raise CliError("--depth must be >= 1 for periodic counts")
    det = cfg.matrix.det()
    # torus: |det(A^n - I)| = |1 - tr(A^n) + det(A)^n|; refined SFT:
    # tr((TS)^n) = tr((ST)^n) = tr(P^n), as the build checks G == T·S, S·T == P
    rows = [{"n": n, "torus": abs(1 - trace + det ** n), "sft_2node": shift,
             "sft_refined": shift}
            for n, trace, shift in zip(range(1, top + 1), _power_traces(cfg.matrix, top),
                                       _power_traces(construction.model, top))]
    lines, what = [], f"--depth {top}: the periodic counts have"
    for row in reversed(rows):  # the largest counts first, to fail fast
        torus, shift = (_exact(row[c], what, "use a lower --depth") for c in ("torus", "sft_2node"))
        lines.append(f"{row['n']:>3}  {torus:>19}  {shift:>10}  {shift:>11}")
        if cfg.json_out:  # the top row holds the largest counts; JSON prints no line
            break
    payload = {**report_header(cfg.matrix), "rows": rows}
    lines = ["  n  torus |det(A^n-I)|  2-node SFT  refined SFT"] + lines[::-1]
    _emit(payload, lines, cfg.json_out)
    return EXIT_OK


def cmd_multmap(cfg: RunConfig) -> int:
    if (cfg.point is None) == (cfg.word is None):
        raise CliError('multmap needs exactly one of --point "p/q" or --word "1,0,1"')
    try:
        system = MultiplicationSystem(cfg.base)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    depth = cfg.depth if cfg.depth is not None else 24
    payload: dict = {"schema": SCHEMA_VERSION, "base": cfg.base}
    if cfg.point is not None:
        if depth < 1:
            raise CliError("--depth must be >= 1 for multmap")
        x = cfg.point[0] % 1
        payload["point"] = str(x)
        result = system.encode(x, depth)
        if isinstance(result, ExpansionAmbiguity):
            payload.update(ambiguous=True, time=result.time, hits=str(result.point),
                           expansions=[list(w) for w in result.expansions])
            lines = [
                f"{x} is a base-{cfg.base} rational: iterate {result.time} "
                f"hits the endpoint {result.point}; both expansions:",
            ]
            for w in result.expansions:
                lines.append("  " + ",".join(str(d) for d in w))
        else:
            total = system.digit_value(result)
            exact = _exact(total, f"--depth {depth}: the partial sum has", "use a lower --depth")
            payload.update(ambiguous=False, digits=list(result),
                           partial_sum={"exact": exact, "decimal": f"{float(total):.12f}"})
            lines = [
                "digits " + ",".join(str(d) for d in result),
                f"partial sum {exact} ~ {payload['partial_sum']['decimal']}",
            ]
    else:
        digits = parse_digits(cfg.word, cfg.base)
        lo, hi = system.decode(digits)
        what = f"--word of {len(digits)} digits: its cylinder has"
        ends = [_exact(x, what, "use a shorter --word") for x in (lo, hi, hi - lo)]
        value = {"exact": ends[0], "decimal": f"{float(lo):.12f}"}
        payload.update(digits=list(digits), value=value, width=ends[2], interval=ends[:2])
        lines = [
            f"partial sum {ends[0]} ~ {value['decimal']}",
            f"cylinder interval [{ends[0]}, {ends[1]}], width {ends[2]}",
        ]
    _emit(payload, lines, cfg.json_out)
    return EXIT_OK


def cmd_render(cfg: RunConfig) -> int:
    construction = _construction(cfg)
    depth = cfg.depth if cfg.depth is not None else 1
    cells = sum(map(sum, (construction.model ** depth).rows()))  # 1ᵀ·P^depth·1
    if cells > WALK_WORD_BUDGET:
        raise CliError(f"--depth {depth} draws {cells:,} cells, over the budget of "
                       f"{WALK_WORD_BUDGET:,}; use a lower --depth")
    svg = render_construction_svg(construction, depth)
    if cfg.svg_path:
        print(_write_figure(svg, cfg.svg_path))
    else:
        sys.stdout.write(svg)
    return EXIT_OK


_HANDLERS: dict[str, Callable[[RunConfig], int]] = {
    handler.__name__.removeprefix("cmd_"): handler
    for handler in (cmd_analyze, cmd_construct, cmd_verify, cmd_encode, cmd_decode,
                    cmd_periodic, cmd_multmap, cmd_render)}


# -- argument plumbing ---------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markov-torus",
        description="Markov partitions for hyperbolic toral automorphisms, "
                    "in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, matrix: bool = True,
            depth: str | None = None, point: bool = False, word: bool = False,
            svg: bool = False, base: bool = False, max_words: bool = False,
            inject: bool = False) -> None:
        cmd = sub.add_parser(name, help=help_text)
        if matrix:
            cmd.add_argument("--matrix", required=True, metavar='"a b c d"',
                             help="integer matrix entries, row-major")
        if depth is not None:
            cmd.add_argument("--depth", type=int, default=None, help=depth)
        if point:
            cmd.add_argument("--point", metavar='"p/q r/s"',
                             help="rational point, space-separated coordinates")
        if word:
            cmd.add_argument("--word", metavar='"i,j,k@-1"',
                             help="symbolic word, digits comma-separated, "
                                  "optional @offset")
        if svg:
            cmd.add_argument("--svg", dest="svg_path", metavar="PATH",
                             help="write the universal-cover figure here")
        if base:
            cmd.add_argument("--base", type=int, default=RunConfig.base,
                             help="multiplication-map base n (default %(default)s)")
        if max_words:
            cmd.add_argument("--max-words", type=int, default=RunConfig.max_words,
                             help="cap on listed codings (default %(default)s)")
        if inject:
            cmd.add_argument("--inject-break", action="store_true",
                             help="negative control: dent one cell so the "
                                  "verifiers must fail")
        cmd.add_argument("--json", dest="json_out", action="store_true",
                         help="machine-readable report")

    add("analyze", "spectral data, slopes, continued fraction, verdict")
    add("construct", "build the partition and report every piece", svg=True)
    add("verify", "run the verifier matrix against the construction",
        depth="refinement/decay depth (default 4)", inject=True)
    add("encode", "itinerary of a rational point through the cells",
        depth="window half-width (default 8)", point=True, max_words=True)
    add("decode", "exact cylinder set of a symbolic word",
        word=True, point=True)
    add("periodic", "periodic-point counts, torus versus shift",
        depth="largest period (default 6)")
    add("multmap", "base-n circle-map baseline: encode or decode",
        matrix=False, depth="digit depth (default 24)", point=True, word=True,
        base=True)
    add("render", "write the universal-cover SVG figure",
        depth="refinement depth to draw (default 1)", svg=True)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The parsed options, each dest a field name, as a :class:`RunConfig`;
    every given ``--matrix`` and ``--point`` is parsed, empty or not."""
    given = dict(vars(args))
    if given.get("matrix") is not None:
        given["matrix"] = parse_matrix(given["matrix"])
    if given.get("point") is not None:
        given["point"] = parse_rationals(given["point"],
                                         1 if args.command == "multmap" else 2)
    return RunConfig(**given, enum_cap=_env_cap(ENUM_CAP_ENV, DEFAULT_ENUM_CAP),
                     cell_cap=_env_cap(CELL_CAP_ENV, DEFAULT_CELL_CAP))


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        return _HANDLERS[cfg.command](cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (NotAutomorphismError, NotHyperbolicError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_REJECT
    except BrokenPipeError:
        # the consumer closed the pipe (e.g. | head); suppress the noise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
