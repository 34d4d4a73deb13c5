"""Self-test of the benchmark's output checks and tracer, on small inputs.

    python3 perfbench/selftest.py

1. One small call per checked artifact kind must pass its check.
2. Changing one digit of a value the check confirms must fail that check.
3. A call forced to exit non-zero must count as failed, so the error rate
   of its repetition is above 0.
4. A traced repetition must record spans in every layer, wrap functions
   under every name they are bound to, account for its wall time within 5%,
   and leave no wrapper behind.

Exits 0 when every step holds, 1 otherwise.
"""

import sys
import tempfile
from pathlib import Path

import run
import workloads as w

# (call, artifact, anchors): the digit changed is the first one after the
# last anchor, each anchor searched after the previous one.
CASES = [
    (w.metrics(w.rand_regular(200, 3, 1)), "metrics.json", ['"girth": ']),
    (w.profile(w.rand_regular(200, 3, 1)), "cutoff_profile.csv", ["\n0,", ","]),
    (w.tree(3, 80), "tree_radial.csv", ["\n10,4,"]),
    (w.mix_nbrw(w.lift("petersen", 50, 1), 20), "mixing_curve.csv", ["\n5,"]),
    (w.decompose(w.rand_regular(60, 3, 1)), "decomposition.json",
     ['"reconstruction": ', "e-"]),
    (w.certify(w.lps(5, 13), "ramanujan"), "certificate.json", ['"_manifest_sha256": "']),
]

FAILING = w.Call("decompose_s", ["decompose", *w.rand_regular(60, 3, 1).argv(),
                                 "--dense-cap", "10"], w.checks.decompose_check())


def corrupt_digit(path: Path, anchors: list) -> str:
    """Lower by one (mod 10) the first digit after the anchors."""
    text = path.read_text()
    i = 0
    for anchor in anchors:
        i = text.index(anchor, i) + len(anchor)
    while not text[i].isdigit():
        i += 1
    new = str((int(text[i]) + 9) % 10)
    path.write_text(text[:i] + new + text[i + 1:])
    return f"{text[i]}->{new} at offset {i}"


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    failures = []

    def expect(cond, message):
        print(("PASS " if cond else "FAIL ") + message)
        if not cond:
            failures.append(message)

    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        tmp = Path(tmp)
        rep = run.run_repetition([c for c, _, _ in CASES], tmp / "clean", 0)
        run.check_all([rep])
        for r in rep.results:
            expect(r.problem is None, f"clean {r.call.label} artifact passes: {r.problem}")

        for r, (_, artifact, anchors) in zip(rep.results, CASES):
            change = corrupt_digit(r.out / artifact, anchors)
            r.problem = None
            run.check_all([rep])
            expect(r.problem is not None,
                   f"corrupted {artifact} ({change}) is caught: {r.problem}")

        bad = run.run_repetition([FAILING], tmp / "failing", 0)
        run.check_all([bad])
        failed = sum(r.problem is not None for r in bad.results)
        expect(failed / len(bad.results) > 0,
               f"forced exit code {bad.results[0].rc} gives error rate "
               f"{failed}/{len(bad.results)}")

        tracer = run.new_tracer().install()
        modules = list(tracer.modules.values())
        try:
            rep = run.run_repetition([c for c, _, _ in CASES], tmp / "traced", 0)
        finally:
            tracer.uninstall()
        rep.trace = tracer.summary()
        silent = [k for k, v in rep.trace["layer_calls"].items() if v == 0]
        expect(not silent, f"every layer records spans (silent: {silent})")
        by_name = {tracer.names[tracer.parents[i]] for i, n in enumerate(tracer.names)
                   if n == "graph_core.validate_and_index" and tracer.parents[i] >= 0}
        expect("walk_engine.mixing_curve" in by_name,
               f"validate_and_index imported by name is traced (callers: {sorted(by_name)})")
        ratio = run.trace_accounting(rep)
        expect(abs(ratio - 1) <= run.TRACE_ACCOUNTING_TOL,
               f"self times + harness time = {ratio:.4f} of traced wall time")
        owners = [*modules, *(v for m in modules for v in vars(m).values()
                              if isinstance(v, type))]
        left = [f"{o.__name__}.{k}" for o in owners for k, v in vars(o).items()
                if not k.startswith("_") and hasattr(v, "__wrapped__")]
        expect(not left, f"uninstall restores every binding (left: {left})")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
