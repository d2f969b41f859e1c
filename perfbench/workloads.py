"""The three benchmark workloads.

Each workload has a set-up (parse code files, load and check access
matrices, build codes and files from the seeded inputs), optional one-off
timed work before its passes, and a pass: the unit of timed work the run
repeats. Timed operations call codedpir's public functions from outside;
their outputs are checked afterwards, outside the timed regions, and every
check lands in the Gate that feeds `fail_ratio`.
"""

from __future__ import annotations

import gc
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import codedpir.codes as codes
import codedpir.optimizer as optimizer
from codedpir import (
    EMatrix,
    FieldMatrix,
    FieldSpec,
    OptimizerConfig,
    StorageSymbol,
    build_queries,
    build_storage,
    code_from_parity_check,
    collect_responses,
    derived_code,
    e_matrix_violations,
    exact_privacy_check,
    recover_file,
    theta_bounds,
    verify_privacy,
)
from codedpir.workbench import CodeFile, fixture_path, parse_code_file, parse_e_matrix_text
from codedpir.workbench.cli import build_parser

import inputs

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

PRIVACY_FILES = 2
PRIVACY_TRIALS = 2000
# The chi-square verdict rejects about 1% of mask-draw seeds by design
# (significance 0.01); a fixed seed keeps the check's work identical on
# every run and its verdict meaningful as a regression signal.
PRIVACY_SEED = 424242


class Gate:
    """Correctness gate: one entry per operation, failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, code: str, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            msg = f"FAIL {code} {op}: {'; '.join(problems)}"
            self.failures.append(msg)
            print(msg, file=sys.stderr)


def attempt(gate: Gate, code: str, op: str, fn):
    """Run one operation; an exception counts as its failure, not a crash."""
    try:
        return fn()
    except Exception as exc:  # the operation boundary: report and go on
        traceback.print_exc(file=sys.stderr)
        gate.record(code, op, [f"{type(exc).__name__}: {exc}"])
        return None


@dataclass
class Pass:
    """Timings of one pass, its raw outputs, and what checking them found.

    `calls` maps a label that names the same call in every pass to the
    call's operation and its start and end on the perf_counter clock;
    `ops` sums the wall time of the calls of each operation.
    """

    ops: dict[str, float] = field(default_factory=dict)
    calls: dict[str, tuple[str, float, float]] = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    exact: dict = field(default_factory=dict)  # beta_gap, theta_ratios, bit and op counts

    @property
    def seconds(self) -> float:
        return sum(self.ops.values())

    def add(self, key: str, value) -> None:
        self.exact[key] = self.exact.get(key, 0) + value


@dataclass
class Entry:
    """One code under test with everything its checks need."""

    cf: CodeFile
    derived: object
    rank_p: int

    @property
    def name(self) -> str:
        return self.cf.name


def load_entry(cf: CodeFile) -> Entry:
    return Entry(cf, derived_code(cf.code), cf.code.parity_rank)


def parse_fixture(path: Path, tr) -> CodeFile:
    with tr.span("workbench.parse"):
        return parse_code_file(path)


# -- shared operations ------------------------------------------------------


def table_defaults() -> tuple[int, int]:
    """(matrix-search budget, min-distance cap) of `codedpir table`."""
    args = build_parser().parse_args(["table", "-", "--seed", "0"])
    return args.budget, args.cap


def scan_code(entry: Entry, seed: int, budget: int, cap: int):
    """One `codedpir table` row: distances (hint or search), then the scan."""
    cf = entry.cf
    dm = cf.d_min_hint if cf.d_min_hint is not None else codes.min_distance(cf.code.h, cap)
    dtm = (
        cf.d_tilde_min_hint
        if cf.d_tilde_min_hint is not None
        else codes.min_distance(cf.code.p, cap)
    )
    config = OptimizerConfig(
        seed=seed,
        exact_budget=budget,
        d_min=cf.d_min_hint,
        d_tilde_min=cf.d_tilde_min_hint,
        min_distance_cap=cap,
    )
    return dm, dtm, optimizer.optimize_cpop(cf.code, config)


def optimize(entry: Entry, seed: int, budget: int, cap: int):
    """`codedpir optimize`: the scan finds both distances itself, once."""
    config = OptimizerConfig(seed=seed, exact_budget=budget, min_distance_cap=cap)
    res = optimizer.optimize_cpop(entry.cf.code, config)
    return res.d_min, res.d_tilde_min, res


def check_scan(entry: Entry, dm: int, dtm: int, res, gate: Gate, p: Pass) -> None:
    code = entry.cf.code
    problems = list(e_matrix_violations(res.e_opt, entry.derived))
    if not res.theta_lb <= res.theta_opt <= res.theta_non_opt:
        problems.append(
            f"price order broken: lb {res.theta_lb}, opt {res.theta_opt}, non_opt {res.theta_non_opt}"
        )
    if res.theta_opt > res.theta_baseline:
        problems.append(f"theta_opt {res.theta_opt} above baseline {res.theta_baseline}")
    if res.theta_opt != Fraction(code.n, res.beta_opt):
        problems.append(f"theta_opt {res.theta_opt} is not n/beta_opt")
    if (res.theta_lb, res.theta_non_opt, res.theta_baseline) != tuple(
        theta_bounds(code, dm, dtm)
    ):
        problems.append("price columns disagree with theta_bounds at the table's distances")
    if res.beta_opt > entry.rank_p:
        problems.append(f"beta_opt {res.beta_opt} above rank(P) {entry.rank_p}")
    gate.record(entry.name, "scan", problems)
    p.add("beta_gap", entry.rank_p - res.beta_opt)
    p.exact.setdefault("theta_ratios", []).append(res.theta_opt / res.theta_lb)


def to_files(field_spec: FieldSpec, raw, stripes: int) -> list:
    """codedpir file matrices from generated components, first `stripes` rows."""
    return [
        [[StorageSymbol(field_spec, comps) for comps in row] for row in file[:stripes]]
        for file in raw
    ]


def retrieval_round(p: Pass, gate: Gate, name: str, code, e: EMatrix, array,
                    mask_seed: int, target: int, tr):
    """One round, its three calls timed apiece; None once one of them fails."""

    def call(step, fn):
        def traced():
            with tr.span(f"protocol.{step}"):
                return fn()

        return timed(p, "retrieval_s", f"{name} {step}",
                     lambda: attempt(gate, name, f"retrieval ({step})", traced))

    qs = call("queries", lambda: build_queries(code, e, target, inputs.FILES, seed=mask_seed))
    rs = None if qs is None else call("respond", lambda: collect_responses(qs, array))
    got = None if rs is None else call("recover", lambda: recover_file(qs, rs, code))
    return None if got is None else (rs, got)


def check_round(name: str, code, beta: int, files, target: int, out, gate: Gate, p: Pass) -> None:
    rs, got = out
    width = code.field.width
    downloaded = sum(sym.ell for resp in rs.responses for sym in resp) * width
    retrieved = sum(sym.ell for row in got for sym in row) * width
    problems = []
    if got != files[target - 1]:
        problems.append(f"recovered file {target} differs from the stored one")
    if Fraction(downloaded, retrieved) != Fraction(code.n, beta):
        problems.append(f"downloaded/retrieved bits {downloaded}/{retrieved} is not n/beta")
    gate.record(name, "retrieval", problems)
    p.add("downloaded_bits", downloaded)
    p.add("retrieved_bits", retrieved)
    # multiply-adds of the responses as the protocol defines them, not counted
    p.add("respond_ops", code.n * code.k * beta * inputs.FILES * inputs.PAYLOAD)


def check_store(name: str, code, files, array, gate: Gate) -> None:
    problems = []
    if len(array.rows) != len(files) * len(files[0]):
        problems.append(f"storage has {len(array.rows)} rows")
    else:
        rows = iter(array.rows)
        for m, file in enumerate(files):
            for i, row in enumerate(file):
                if list(next(rows)[: code.k]) != row:
                    problems.append(f"file {m + 1} stripe {i + 1} lost its systematic part")
    gate.record(name, "store", problems)


def timed(p: Pass, op: str, label: str, fn):
    """Run fn as call `label` of timed operation `op`; collect garbage beforehand."""
    gc.collect()
    t0 = perf_counter()
    try:
        return fn()
    finally:
        t1 = perf_counter()
        p.ops[op] = p.ops.get(op, 0.0) + t1 - t0
        p.calls[label] = (op, t0, t1)


# -- workloads --------------------------------------------------------------


class TableFixtures:
    """`codedpir table` at CLI defaults over the six bundled fixtures."""

    name = "table-fixtures"
    setup_repeats = 5
    preload: tuple[str, ...] = ()

    def setup(self, seed: int, tr):
        budget, cap = table_defaults()
        entries = [
            load_entry(parse_fixture(FIXTURES / f"{n}.pchk", tr)) for n in inputs.table_order(seed)
        ]
        return {"entries": entries, "budget": budget, "cap": cap}

    def start(self, state, gate: Gate, tr) -> dict[str, float]:
        return {}

    def run_pass(self, state, index: int, gate: Gate, tr) -> Pass:
        p = Pass()
        for entry in state["entries"]:
            out = timed(p, "scan_s", f"{entry.name} scan", lambda: attempt(
                gate, entry.name, "scan",
                lambda: scan_code(entry, inputs.TABLE_SCAN_SEED, state["budget"], state["cap"]),
            ))
            p.outputs.append((entry, out))
        return p

    def check(self, state, p: Pass, gate: Gate) -> None:
        for entry, out in p.outputs:
            if out is not None:
                check_scan(entry, *out, gate, p)


class RetrieveArray:
    """Private retrievals from c7_array over GF(2) at the committed beta=60 matrix."""

    name = "retrieve-array"
    setup_repeats = 3
    preload: tuple[str, ...] = ()

    def setup(self, seed: int, tr):
        cf = parse_fixture(FIXTURES / "c7_array.pchk", tr)
        with tr.span("workbench.parse"):
            e = parse_e_matrix_text(inputs.C7_MATRIX.read_text(encoding="ascii"))
        entry = load_entry(cf)
        violations = e_matrix_violations(e, entry.derived)
        code = cf.code
        raw = inputs.retrieval_inputs(self.name, seed, cf.name, code.field.order, e.beta, code.k)
        return {
            "entry": entry,
            "e": e,
            "violations": violations,
            "files": to_files(code.field, raw.files, e.beta),
            "rounds": raw.rounds,
        }

    def start(self, state, gate: Gate, tr) -> dict[str, float]:
        entry, e = state["entry"], state["e"]
        gate.record(entry.name, "load access matrix", state["violations"])
        p = Pass()
        code = entry.cf.code
        state["array"] = timed(p, "store_s", f"{entry.name} store", lambda: attempt(
            gate, entry.name, "store", lambda: build_storage(code, state["files"])
        ))
        if state["array"] is not None:
            check_store(entry.name, code, state["files"], state["array"], gate)
        return p.ops

    def run_pass(self, state, index: int, gate: Gate, tr) -> Pass:
        p = Pass()
        if state["array"] is None:
            return p
        entry, e = state["entry"], state["e"]
        mask_seed, target = state["rounds"][index % len(state["rounds"])]
        out = retrieval_round(
            p, gate, entry.name, entry.cf.code, e, state["array"], mask_seed, target, tr
        )
        p.outputs.append((target, out))
        return p

    def check(self, state, p: Pass, gate: Gate) -> None:
        entry, e = state["entry"], state["e"]
        code = entry.cf.code
        p.add("beta_gap", entry.rank_p - e.beta)
        p.exact["theta_ratios"] = [Fraction(code.n, e.beta) / Fraction(code.n, code.n - code.k)]
        for target, out in p.outputs:
            if out is not None:
                check_round(entry.name, code, e.beta, state["files"], target, out, gate, p)


# acceptance criterion 6's exact-enumeration instances over small binary codes
_E1 = EMatrix(((1, 0, 1), (1, 1, 0), (0, 1, 1)), beta=2)
_E2 = EMatrix(((1, 0), (0, 1)), beta=1)


def _privacy_instances():
    gf2 = FieldSpec(1)
    c1 = parse_code_file(fixture_path("c1.pchk")).code
    tiny = code_from_parity_check(FieldMatrix(gf2, [[1, 1, 1]]))
    return [("c1", c1, _E1, 1), ("c1", c1, _E1, 2), ("(3,2)", tiny, _E2, 2)]


class WideField:
    """Two (18,12) codes, GF(2^4) and GF(2^16): scan, store, retrieve, privacy."""

    name = "wide-field"
    setup_repeats = 5
    preload = ("scipy.stats",)  # verify_privacy imports it on first call

    def setup(self, seed: int, tr):
        c5 = load_entry(parse_fixture(FIXTURES / "c5like.pchk", tr))
        wide = FieldSpec(inputs.WIDE_FIELD_WIDTH)
        p_rows = inputs.wide_parity_rows(seed)
        r = len(p_rows)
        h = FieldMatrix(wide, [list(row) + [int(i == j) for j in range(r)] for i, row in enumerate(p_rows)])
        g16 = load_entry(CodeFile(name="gf65536_random", code=code_from_parity_check(h)))
        per_code = []
        for entry in (c5, g16):
            code = entry.cf.code
            # files carry rank(P) stripes, the widest any scan can return
            raw = inputs.retrieval_inputs(
                self.name, seed, entry.name, code.field.order, entry.rank_p, code.k
            )
            per_code.append((entry, to_files(code.field, raw.files, entry.rank_p), raw.rounds))
        return {
            "codes": per_code,
            "scan_seed": inputs.wide_scan_seed(seed),
            "privacy": _privacy_instances(),
            "defaults": table_defaults(),
        }

    def start(self, state, gate: Gate, tr) -> dict[str, float]:
        return {}

    def run_pass(self, state, index: int, gate: Gate, tr) -> Pass:
        p = Pass()
        budget, cap = state["defaults"]
        scans = [
            timed(p, "scan_s", f"{entry.name} scan", lambda: attempt(
                gate, entry.name, "scan", lambda: optimize(entry, state["scan_seed"], budget, cap)
            ))
            for entry, _, _ in state["codes"]
        ]
        stored = []
        for (entry, files, _), scan in zip(state["codes"], scans):
            if scan is None:
                stored.append(None)
                continue
            beta = scan[2].beta_opt
            stored.append(timed(p, "store_s", f"{entry.name} store", lambda: attempt(
                gate, entry.name, "store",
                lambda: build_storage(entry.cf.code, [f[:beta] for f in files]),
            )))
        rounds = []
        for (entry, _, schedule), scan, array in zip(state["codes"], scans, stored):
            if array is None:
                rounds.append(None)
                continue
            mask_seed, target = schedule[index % len(schedule)]
            out = retrieval_round(
                p, gate, entry.name, entry.cf.code, scan[2].e_opt, array, mask_seed, target, tr
            )
            rounds.append((target, out))
        privacy = self._privacy(state, scans[0], p, gate, tr)
        p.outputs = [scans, stored, rounds, privacy]
        return p

    def _privacy(self, state, c5_scan, p: Pass, gate: Gate, tr):
        out = []
        if c5_scan is not None:
            entry = state["codes"][0][0]

            def statistical():
                with tr.span("protocol.privacy_stat"):
                    return verify_privacy(
                        entry.cf.code, c5_scan[2].e_opt, f=PRIVACY_FILES,
                        trials=PRIVACY_TRIALS, seed=PRIVACY_SEED,
                    )

            op = "privacy (statistical)"
            out.append((entry.name, op, True, timed(p, "privacy_s", f"{entry.name} {op}", lambda: attempt(
                gate, entry.name, op, statistical
            ))))
        for name, code, e, f in state["privacy"]:

            def exact():
                with tr.span("protocol.privacy_exact"):
                    return exact_privacy_check(code, e, f=f)

            op = f"privacy (exact, f={f})"
            out.append((name, op, False, timed(p, "privacy_s", f"{name} {op}", lambda: attempt(
                gate, name, op, exact
            ))))
            p.add("privacy_masks", code.field.order ** (code.k * e.beta * f))
        return out

    def check(self, state, p: Pass, gate: Gate) -> None:
        scans, stored, rounds, privacy = p.outputs
        for (entry, files, _), scan, array, rnd in zip(state["codes"], scans, stored, rounds):
            if scan is None:
                continue
            check_scan(entry, *scan, gate, p)
            beta = scan[2].beta_opt
            stripes = [f[:beta] for f in files]
            if array is not None:
                check_store(entry.name, entry.cf.code, stripes, array, gate)
            if rnd is not None and rnd[1] is not None:
                check_round(entry.name, entry.cf.code, beta, stripes, rnd[0], rnd[1], gate, p)
        for name, op, statistical, verdict in privacy:
            if verdict is None:
                continue
            if statistical:
                problems = [] if verdict.ok and verdict.trials == PRIVACY_TRIALS else [
                    f"verdict failed: min p-value {verdict.min_p_value:.3g} "
                    f"below {verdict.per_test_threshold:.3g}"
                ]
                p.add("privacy_tests", verdict.tests)
            else:
                multisets_ok, construction_ok = verdict
                problems = [] if multisets_ok and construction_ok else [
                    f"multisets {multisets_ok}, construction {construction_ok}"
                ]
            gate.record(name, op, problems)


WORKLOADS = {w.name: w for w in (TableFixtures(), RetrieveArray(), WideField())}
