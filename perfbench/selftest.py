#!/usr/bin/env python3
"""Quick self-check of the benchmark harness (a few seconds, no workload run).

    python3 perfbench/selftest.py

Not named test_*.py, so a pytest run from the repository root does not
collect it.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import sys

import run
from layers import PER_LAYER, RUN_METRICS, Tracer, unit
from workloads import WORKLOADS, Item


def check_spec() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["per_layer"]]
    assert names == list(PER_LAYER) + list(RUN_METRICS), "per_layer list drifted"
    assert all(m["unit"] == unit(m["name"]) for m in spec["per_layer"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def check_decks() -> None:
    for w in WORKLOADS.values():
        deck = w.deck_items(3, 0)
        assert deck == w.deck_items(3, 0), f"{w.name}: deck not reproducible"
        shapes = sorted(i.shape for i in deck)
        assert shapes == sorted(i.shape for i in w.deck_items(4, 1)), f"{w.name}: mix varies"
        n = w.min_decks * len(deck)
        assert n * (1 - w.tail_percentile / 100) >= 10 - 1e-9, f"{w.name}: tail too high"
        assert any(i.shape == w.warmup for i in deck), f"{w.name}: no warm-up shape"
        if w.name != "domain-grid":
            assert len({i.argv for i in deck + w.deck_items(3, 1)}) == 2 * len(deck)


def check_outputs(cli) -> None:
    out = run.OUT / "selftest.json"
    good = run.run_item(cli, Item(("verify", "three-level", "--t", "0.3"), "t", "verify", 1), out)
    assert not good.error and good.checks > 0 and good.failed_checks == 0, good
    admissible_fails = run.run_item(
        cli, Item(("verify", "three-level", "--t", "1.5"), "t", "verify", 1), out
    )
    assert not admissible_fails.error and admissible_fails.failed_checks == 1, admissible_fails
    domain = Item(("domain", "--alpha", "poly:1", "--coeff", "poly:0", "--n-max", "64"),
                  "n", "domain", 0)
    out.write_text('{"suite": "domain", "partial_sum": Infinity}', encoding="utf-8")
    nonfinite = run.Result(0.0)
    run.check_output(domain, 0, out, nonfinite)
    assert nonfinite.error.startswith("not strict JSON"), nonfinite
    bad_usage = Item(("verify", "random", "--dim", "x"), "d", "verify", 1)
    assert run.run_item(cli, bad_usage, out).error == "exit status 2"
    out.unlink(missing_ok=True)


def check_tracer(cli) -> None:
    import rieszops.factory as factory
    import rieszops.linalg as linalg

    originals = (linalg.hermitian_eig, factory.sqrt_psd, cli.run_verify)
    tracer = Tracer()
    tracer.install()
    try:
        assert factory.sqrt_psd is not originals[1], "by-name import not wrapped"
        tracer.item = 0
        run.run_item(cli, Item(("verify", "three-level", "--t", "0.3"), "t", "verify", 1),
                     run.OUT / "selftest.json")
    finally:
        tracer.uninstall()
    assert (linalg.hermitian_eig, factory.sqrt_psd, cli.run_verify) == originals
    assert not tracer.absent, tracer.absent
    values = tracer.per_layer(1)
    assert values["linalg.hermitian_eig.calls"] > 0 and values["models.self_ms"] > 0
    assert values["domains.summability_verdict.self_ms"] == 0
    roots = [s for s in tracer.spans if s[4] < 0]
    assert [s[0] for s in roots] == ["cli.main"], roots
    assert abs(sum(tracer.self_ms()[g] for g in {s[1] for s in tracer.spans})
               - (roots[0][3] - roots[0][2]) / 1e6) < 1e-6, "self times do not add up"
    (run.OUT / "selftest.json").unlink(missing_ok=True)


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    cli = run.load_cli()
    check_spec()
    check_decks()
    check_outputs(cli)
    check_tracer(cli)
    print("perfbench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
