"""One round of a workload in a fresh process; prints one JSON line.

    python3 bench/worker.py --workload NAME --seed N --inputs DIR [--trace PATH]

The round imports statehelper from the checkout's src/, writes and loads its
YAML inputs, stamps the moment the inputs are ready, runs the workload's CLI
calls through `statehelper.cli.main`, and checks every output once the clock
has stopped.  With --trace the layer wrappers are installed before the
inputs are loaded and the spans are written to PATH at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "statehelper", "__init__.py")):
        raise SystemExit(f"no statehelper sources under {src}")
    sys.path.insert(0, src)
    import statehelper
    import statehelper.cli
    import statehelper.files
    if not os.path.abspath(statehelper.__file__).startswith(src + os.sep):
        raise SystemExit(f"statehelper imported from {statehelper.__file__}, "
                         f"not from {src}")
    return statehelper


def _run_call(cli, call):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(call.argv)
    except Exception:  # a crash is reported as a failed operation
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def _check(calls, outputs, inputs):
    """(failure reports, check errors) for one round.

    An operation fails when it exits non-zero, crashes or prints malformed
    output; the checks speak of the operations that did not fail.
    """
    import checks  # imported after the clock stops, outside setup_s
    import workloads

    failures, errors = [], []
    scheme = workloads.OPTIMAL_SCHEME
    joint = checks.scheme_joint([0.5, 0.5], scheme["p_u_given_s"],
                                scheme["p_a_given_u"])
    ref = checks.match_reference(joint, workloads.erasure_payoff())
    values = {}
    for call, (code, text, err) in zip(calls, outputs):
        if code != 0:
            failures.append(f"{call.kind} exited with {code}: "
                            f"{err.strip()[-300:]}")
            continue
        meta = call.meta
        try:
            if call.kind == "simulate":
                pay, dec = checks.parse_match(text, meta["n"])
                errors += checks.check_match(
                    pay, dec, meta["trials"], ref,
                    rate=meta["rate"] if meta["threshold"] else None)
                if meta["adversary"] == "oblivious":
                    errors += checks.check_oblivious_mean(
                        pay, meta["trials"], ref)
            elif call.kind == "sweep":
                errors += checks.check_sweep(checks.parse_sweep(text),
                                             meta["rates"])
            elif call.kind == "value":
                values[meta["game"], meta["a"], meta["b"]] = \
                    checks.parse_value(text)
            elif call.kind == "common-info":
                errors += checks.check_common_info(
                    checks.parse_common_info(text), joint.sum(axis=1))
        except checks.Malformed as exc:
            failures.append(f"{call.kind}: malformed output: {exc}")
    if values:
        errors += checks.check_values(values, inputs.games)
    return failures, errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    statehelper = _import_program()
    import workloads
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(statehelper)

    inputs = workloads.write_inputs(args.workload, args.seed, args.inputs)
    for name, path in inputs.files.items():
        if name == "optimal":
            statehelper.files.load_scheme(path)
        else:
            statehelper.files.load_game(path)
    ready = time.monotonic()

    calls = workloads.calls(args.workload, args.seed, inputs)
    start = time.perf_counter()
    outputs = [_run_call(statehelper.cli, call) for call in calls]
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, errors = _check(calls, outputs, inputs)
    result = {"ready_monotonic": ready, "wall_s": wall,
              "peak_rss_mb": peak_rss_mb, "attempted": len(calls),
              "failed": len(failures), "failures": failures, "errors": errors}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.dump(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
