"""Acceptance gate: the eight release criteria, one verdict line each.

Each test prints its verdict to the real terminal (bypassing capture)
so a full run reads as a checklist.  Criterion 5 documents the known
limit of the reconstruction: the context engine's final-third accuracy
is 0.985, not 1.0, and the fallback margin is recorded in the output.
"""

from __future__ import annotations

import io
import random
import time

import nextstep.engine
from nextstep import Engine, Observation, PredictorConfig, read_snapshot
from nextstep.cli import main
from nextstep.evaluation import metrics_to_csv, run_trace
from nextstep.lookupdb import dump_snapshot
from nextstep.scenarios import generate_trace
from .reference import brute_match, closed_form_correct, closed_form_incorrect
from .test_lookupdb import learned_p, random_match_cases, window_from


def verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def test_criterion_1_probability_closed_forms(capsys):
    started = time.perf_counter()
    worst = 0.0
    for alpha in (0.5, 0.8, 0.95):
        for p0 in (0.0, 0.2, 1.0):
            for k in (1, 5, 20):
                up = learned_p(p0, alpha, k, hit=True)
                down = learned_p(p0, alpha, k, hit=False)
                worst = max(worst,
                            abs(up - closed_form_correct(p0, alpha, k)),
                            abs(down - closed_form_incorrect(p0, alpha, k)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 1.0
    verdict(capsys, "criterion-1", ok,
            f"27 parameter points, worst deviation {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_counter_conservation(capsys):
    started = time.perf_counter()
    rng = random.Random(20240815)
    engine = Engine(PredictorConfig(), steps=(1, 2, 3, 4), classifications=(0, 1))

    def check(entries):
        for entry in entries:
            for slot in entry.slots.values():
                assert sum(slot.per_context.values()) == slot.total, entry.entry_id

    for event in range(1, 10_001):
        engine.predict()
        contexts = {cc: rng.randrange(5) for cc in (0, 1) if rng.random() < 0.9}
        engine.learn(Observation(rng.randint(1, 4), contexts))
        # the entries this step may have touched, plus periodic full sweeps
        check(engine.db.matching_entries(engine.window, offset=1))
        if event % 1000 == 0:
            check(engine.db)
    check(engine.db)
    elapsed = time.perf_counter() - started
    ok = elapsed < 5.0
    verdict(capsys, "criterion-2", ok,
            f"10000 events, {len(engine.db)} rules stayed conserved, {elapsed:.2f}s")
    assert elapsed < 5.0


def test_criterion_3_match_oracle(capsys):
    from nextstep.lookupdb import LookupDB, condition_matches

    started = time.perf_counter()
    db = LookupDB()
    by_condition = {}
    windows = {}
    disagreements = 0
    for condition, window_steps, offset in random_match_cases(10_000, seed=99):
        if condition not in by_condition:
            by_condition[condition] = db.add(condition, 1, 0.5)
        key = tuple(window_steps)
        if key not in windows:
            windows[key] = window_from(list(reversed(window_steps)))
        got = condition_matches(by_condition[condition], windows[key], offset)
        if got != brute_match(list(condition), window_steps, offset):
            disagreements += 1
    elapsed = time.perf_counter() - started
    ok = disagreements == 0 and elapsed < 2.0
    verdict(capsys, "criterion-3", ok,
            f"10000 cases, {disagreements} disagreements, {elapsed:.2f}s")
    assert disagreements == 0
    assert elapsed < 2.0


def test_criterion_4_depth_first_scenario_is_mastered(capsys):
    trace = generate_trace("a", 30, 3)
    details = []
    ok = True
    for mode in ("context", "baseline"):
        _, rows = run_trace(trace, PredictorConfig(engine_mode=mode))
        final_half = rows[len(rows) // 2:]
        sustained = all(row.roll_accuracy == 1.0 for row in final_half)
        ok = ok and sustained
        details.append(f"{mode} roll=1.0 over final {len(final_half)}: {sustained}")
    verdict(capsys, "criterion-4", ok, "; ".join(details))
    assert ok


def test_criterion_5_mixed_scenario_reproduction(capsys):
    started = time.perf_counter()
    trace = generate_trace("mix", 40, 3, seed=7)
    tail_start = len(trace) - len(trace) // 3

    results = {}
    for direction in ("append-observation", "extend-into-past"):
        for mode in ("context", "baseline"):
            config = PredictorConfig(engine_mode=mode,
                                     extension_direction=direction)
            _, rows = run_trace(trace, config)
            tail = [row for row in rows if row.t >= tail_start]
            results[(direction, mode)] = (
                rows[-1].cum_accuracy,
                sum(row.correct for row in tail) / len(tail),
                [row.t for row in tail if not row.correct],
            )
    elapsed = time.perf_counter() - started

    # (a) a perfect final third under at least one extension direction
    perfect = {d: not results[(d, "context")][2]
               for d in ("append-observation", "extend-into-past")}
    tail_errors = {d: len(results[(d, "context")][2])
                   for d in ("append-observation", "extend-into-past")}
    # fallback when (a) fails under both: a >= 10 point tail-accuracy lead
    tail_gaps = {d: results[(d, "context")][1] - results[(d, "baseline")][1]
                 for d in ("append-observation", "extend-into-past")}
    best_direction = max(tail_gaps, key=tail_gaps.get)
    best_tail_gap = tail_gaps[best_direction]

    # (b) and (c) on the direction that carries the claim
    context_cum = results[("append-observation", "context")][0]
    baseline_cum = results[("append-observation", "baseline")][0]
    cum_gap = context_cum - baseline_cum
    b_ok = cum_gap >= 0.10
    c_ok = 0.50 <= baseline_cum <= 0.85
    a_ok = any(perfect.values())
    fallback_ok = best_tail_gap >= 0.10

    detail = (
        f"(a) tail errors by direction {tail_errors}; "
        f"fallback tail gap {best_tail_gap * 100:+.2f} points [{best_direction}]; "
        f"(b) cum gap {cum_gap * 100:+.2f} points [append-observation], "
        f"{'PASS' if b_ok else 'FAIL'}; "
        f"(c) baseline cum {baseline_cum:.4f}, {'PASS' if c_ok else 'FAIL'}; "
        f"{elapsed:.2f}s"
    )
    verdict(capsys, "criterion-5", a_ok or fallback_ok, detail)

    assert elapsed < 10.0
    assert b_ok, f"cumulative gap {cum_gap * 100:+.2f} points, needs >= 10"
    assert c_ok, f"baseline cumulative accuracy {baseline_cum:.4f} outside [0.50, 0.85]"
    assert a_ok or fallback_ok, (
        "final third is not perfectly predicted under either extension "
        f"direction (errors: {tail_errors}) and the recorded fallback tail "
        f"gap is {best_tail_gap * 100:+.2f} points [{best_direction}], "
        "below the 10 point mark"
    )


def test_criterion_6_baseline_equals_forced_relevance(capsys, monkeypatch):
    started = time.perf_counter()
    trace = generate_trace("mix", 10, 3, seed=5)
    baseline_engine, baseline_rows = run_trace(
        trace, PredictorConfig(engine_mode="baseline")
    )
    monkeypatch.setattr(nextstep.engine, "relevance_mean",
                        lambda strong: 1.0)
    shadow_engine, shadow_rows = run_trace(
        trace, PredictorConfig(engine_mode="context")
    )
    monkeypatch.undo()
    csv_equal = metrics_to_csv(baseline_rows) == metrics_to_csv(shadow_rows)
    db_equal = dump_snapshot(baseline_engine.db, 0.8, 0.5) == dump_snapshot(
        shadow_engine.db, 0.8, 0.5
    )
    elapsed = time.perf_counter() - started
    ok = csv_equal and db_equal and elapsed < 2.0
    verdict(capsys, "criterion-6", ok,
            f"csv identical: {csv_equal}, snapshot identical: {db_equal}, "
            f"{elapsed:.2f}s")
    assert csv_equal and db_equal
    assert elapsed < 2.0


def test_criterion_7_determinism_and_persistence(capsys, tmp_path):
    started = time.perf_counter()
    trace = generate_trace("mix", 10, 3, seed=2)
    engine_one, rows_one = run_trace(trace, PredictorConfig())
    engine_two, rows_two = run_trace(trace, PredictorConfig())
    csv_equal = metrics_to_csv(rows_one) == metrics_to_csv(rows_two)

    first = tmp_path / "first.db"
    second = tmp_path / "second.db"
    first.write_text(dump_snapshot(engine_one.db, 0.8, 0.5), encoding="utf-8")
    db, alpha, theta = read_snapshot(first)
    second.write_text(dump_snapshot(db, alpha, theta), encoding="utf-8")
    snapshot_equal = first.read_bytes() == second.read_bytes()
    elapsed = time.perf_counter() - started
    ok = csv_equal and snapshot_equal and elapsed < 2.0
    verdict(capsys, "criterion-7", ok,
            f"replay csv identical: {csv_equal}, save/load/save identical: "
            f"{snapshot_equal}, {elapsed:.2f}s")
    assert csv_equal and snapshot_equal
    assert elapsed < 2.0


def test_criterion_8_repl_batch_parity(capsys, monkeypatch, tmp_path):
    started = time.perf_counter()
    steps = [2, 3, 2, 3, 2, 3]

    trace_path = tmp_path / "trace.txt"
    trace_path.write_text("".join(f"{s}\n" for s in steps), encoding="utf-8")
    batch_db = tmp_path / "batch.db"
    assert main(["run", str(trace_path), "--output", str(tmp_path / "out.csv"),
                 "--save-db", str(batch_db)]) == 0

    repl_db = tmp_path / "repl.db"
    script = "".join(f"{s}\n" for s in steps) + f":save {repl_db}\n:quit\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(script))
    assert main(["repl", "--steps", "2,3", "--classifications", ""]) == 0
    capsys.readouterr()

    identical = batch_db.read_bytes() == repl_db.read_bytes()
    elapsed = time.perf_counter() - started
    ok = identical and elapsed < 1.0
    verdict(capsys, "criterion-8", ok,
            f"snapshots identical: {identical}, {elapsed:.2f}s")
    assert identical
    assert elapsed < 1.0
