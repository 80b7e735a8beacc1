"""Benchmark of cancelput: one command, every metric by name and unit.

    python3 bench/run.py --workload diffusion|jumps --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` and nothing is installed.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  Its output files go to ``.bench_out/`` at the root.  Without
``src/cancelput`` the command exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import warnings

import reference
import tracing
import workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    """Import cancelput from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "cancelput", "__init__.py")):
        _fail(f"no program to measure: {SRC}/cancelput is missing")
    sys.path.insert(0, SRC)
    import cancelput

    if not os.path.abspath(cancelput.__file__).startswith(SRC + os.sep):
        _fail(f"cancelput was imported from {cancelput.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    errors = [f"reference: {e}" for e in reference.self_check()]
    os.makedirs(OUT, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        w = workload.Workload(args.workload, args.seed, ROOT, OUT, tracer)
        t0 = time.perf_counter()
        rounds = w.run(args.seconds)
        measured_s = time.perf_counter() - t0
        errors += w.finish_checks()
        if tracer:
            layers, absent = tracing.probe_layers(w, tracer, args.seed)
    numerics_warnings = sum(1 for c in caught if c.category.__name__ == "NumericsWarning")

    tally = w.tally
    errors += tally.errors
    end_to_end = {
        **tally.end_to_end(),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for path in (w.curve_path, w.sim_path):
        if os.path.exists(path):
            os.remove(path)

    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds in {measured_s:.1f} s, "
          f"{tally.attempted} operations, {tally.failed} failed")
    print(f"validate --suite mc: {tally.mc_verdicts_failed} of {tally.mc_verdicts_total} "
          "3-sigma verdicts failed on their own samples")
    for name, diff, band in w.pooled.verdicts():
        print(f"pooled MC {name}: |difference| {diff:.4g}, band {band:.4g}")
    print(f"NumericsWarning raised: {numerics_warnings}")
    for message in errors[:20]:
        print(f"ERROR {message}")

    if tracer:
        layers.update(tracing.import_layers(SRC, ROOT))
        layers["pricer.numerics_warnings"] = float(numerics_warnings)
        metrics = {}
        for name, unit in tracing.PER_LAYER:
            metrics[name] = {"value": layers.get(name, tracing.ABSENT), "unit": unit}
            if name not in layers and name not in absent:
                absent.append(name)
        for name, (value, unit) in end_to_end.items():
            print(f"traced {name} {value:.6g} {unit}")
        for name in absent:
            print(f"absent layer {name}")
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"), {
            "workload": args.workload, "seed": args.seed, "rounds": rounds,
            "traced_end_to_end": {k: v[0] for k, v in end_to_end.items()},
            "per_layer": {k: v["value"] for k, v in metrics.items()}, "absent": absent,
        })
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end.items()}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")

    print(json.dumps({"correct": not errors, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
