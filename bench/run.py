"""bzeta benchmark: one command, every metric, every result checked.

Usage (from the root of a checkout):

    python3 bench/run.py --workload lib-real --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists):

    lib-real     real-argument calls across the numeric API, 128/256/512 bits
    lib-complex  complex s, |Im s| in [10, 1000], default ctx
    verify-all   repeated in-process verify.run_suite("all")
    cli          sequential `python -m bzeta.cli ...` children

One caller runs a closed loop in this process: every bzeta call takes the
global lock in ``numkernel.working``, so more callers would only measure
lock waiting.  bzeta is imported from the checkout's ``src``.

``--trace 0`` prints the end-to-end metrics.  Set-up (import of bzeta,
contexts, inputs and one warm-up call per function family and precision)
is repeated five times and its median reported.  The timed phase then runs
whole passes over the seeded operation list for about ``--seconds``.  The
lib-real, lib-complex and cli passes are sized to fill most of a 20 s run
by themselves (distinct inputs steady the percentiles from seed to seed);
verify-all repeats its 1.5 s suite.

``--trace 1`` runs one pass untraced and the same pass with every layer's
public functions wrapped (see tracer.py), then the public-API probes
(probes.py), and prints the per-layer metrics.

After the timing, every result of the first pass is compared with an
independent reference (oracle.py).  A certified result farther from the
reference than its own error bar is a contract violation: the run then
reports ``correct: false`` and exits with code 1.  A pass repeated in the
same run must reproduce the first pass's value digests exactly.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Per-op
records, the environment stamp and (traced) spans are written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5
# A certified bar's margin is log2(target / bar).  The mean is taken with each
# margin capped, so that a few near-exact results do not swamp it.
MARGIN_CAP_BITS = 16

sys.path.insert(0, str(Path(__file__).resolve().parent))

clock = time.perf_counter

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("bar_margin_bits_mean", "bits"),
)

# per-layer metric -> (unit, end-to-end metrics it should move, on which workloads)
PER_LAYER = {}


def _layer(names, unit, moves, where):
    for n in names:
        PER_LAYER[n] = (unit, moves, where)


_PROBES = ("real256", "real512", "cap400", "complex256")
_layer(["hasse.calls"], "count", "ops_per_s, op_ms_p50, fail_frac",
       "lib-real, verify-all (barely: cli)")
_layer(["hasse.self_ms_per_op"], "ms", "ops_per_s, op_ms_p50, fail_frac",
       "lib-real, verify-all (barely: cli)")
_layer(["hasse.terms_p50", "hasse.terms_p90"], "count",
       "ops_per_s, op_ms_p50, fail_frac", "lib-real, verify-all (barely: cli)")
_layer(["hasse.unconverged_frac"], "fraction", "ops_per_s, op_ms_p50, fail_frac",
       "lib-real, verify-all (barely: cli)")
_layer(["hasse.table_ms.%s" % p for p in _PROBES], "ms", "ops_per_s, suite_s",
       "lib-real, verify-all (barely: lib-complex)")
_layer(["hasse.table_subs_per_s"], "1/s", "ops_per_s, suite_s",
       "lib-real, verify-all (barely: lib-complex); subtractions computed as sum of m")
_layer(["hasse.kernel_ms.%s" % p for p in _PROBES], "ms", "op_ms_p50",
       "lib-complex, lib-real")
_layer(["hasse.head_ms.real256", "hasse.head_ms.complex256"], "ms",
       "op_ms_p50, op_ms_p90", "lib-complex (barely: lib-real); derived: full call - live hasse_sum")
_layer(["numkernel.calls"], "count", "op_ms_p50", "lib-complex, the beta share of lib-real")
_layer(["numkernel.self_ms_per_op"], "ms", "op_ms_p50",
       "lib-complex, the beta share of lib-real")
_layer(["numkernel.gamma_ap_us.real", "numkernel.gamma_ap_us.complex",
        "numkernel.trig_us"], "us", "op_ms_p50", "lib-complex, the beta share of lib-real")
_layer(["betafn.calls"], "count", "ops_per_s", "lib-real, verify-all")
_layer(["betafn.self_ms_per_op"], "ms", "ops_per_s", "lib-real, verify-all")
_layer(["betafn.fanout"], "calls/call", "ops_per_s", "lib-real, verify-all")
_layer(["verify.self_ms_per_op"], "ms", "suite_s", "verify-all")
_layer(["verify.suite_ms.exact", "verify.suite_ms.zeta", "verify.suite_ms.beta"], "ms",
       "suite_s", "verify-all")
_layer(["exact.calls"], "count", "op_ms_p90, setup_s",
       "cli (and the exact checks in verify-all; barely: lib-*)")
_layer(["exact.self_ms_per_op", "exact.bn_cold_ms"], "ms", "op_ms_p90, setup_s",
       "cli (and the exact checks in verify-all; barely: lib-*)")
_layer(["cli.spawn_ms", "cli.import_ms", "cli.run_ms"], "ms", "op_ms_p50",
       "cli (import_ms also moves setup_s everywhere)")
_layer(["trace.overhead_frac"], "fraction", "none; cost of the traced run", "all")


def import_bzeta():
    """Import bzeta afresh from the checkout's src (module caches empty)."""
    for key in [k for k in sys.modules if k == "bzeta" or k.startswith("bzeta.")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bzeta

    if Path(bzeta.__file__).resolve().parent != SRC / "bzeta":
        raise ImportError("bzeta imported from %s, not from %s" % (bzeta.__file__, SRC))
    return bzeta


def env_stamp() -> dict:
    import mpmath

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src_hash = hashlib.sha256()
    for f in sorted((SRC / "bzeta").glob("*.py")):
        src_hash.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest()[:16],
    }


def make_workload(name, seed):
    import workloads

    if name == "lib-real":
        return workloads.LibReal(name, seed)
    if name == "lib-complex":
        return workloads.LibComplex(name, seed)
    if name == "verify-all":
        return workloads.VerifyAll(name, seed)
    return workloads.Cli(name, seed, str(ROOT))


def percentiles(samples_s):
    ms = [1e3 * x for x in samples_s]
    p50 = statistics.median(ms)
    p90 = statistics.quantiles(ms, n=10)[8]
    return p50, p90, len(ms), sum(1 for x in ms if x > p90)


def run_timed(wl, seconds):
    """Whole passes over the operation list: the first always, then more
    while the next one is expected to end within `seconds`.  Only whole
    passes are timed, so every run weighs each operation alike."""
    t_start = clock()
    passes = [wl.run_pass(clock)]
    while (clock() - t_start) * (len(passes) + 1) / len(passes) <= seconds:
        passes.append(wl.run_pass(clock))
    return passes, clock() - t_start


def run_traced(wl, workload, tag):
    """One untraced pass, then the same pass traced.

    Returns (passes, untraced seconds, traced seconds, span lists).  In the
    cli workload each child traces itself and writes its own span file.
    """
    import tracer

    t0 = clock()
    untraced = wl.run_pass(clock)
    t_untraced = clock() - t0
    if workload == "cli":
        span_dir = OUT / ("spans-" + tag)
        span_dir.mkdir(exist_ok=True)
        t0 = clock()
        traced = wl.run_pass(clock, span_dir=str(span_dir))
        t_traced = clock() - t0
        span_sets = [tracer.load_spans(span_dir / ("%d.jsonl" % i))
                     for i in range(len(traced))]
    else:
        tr = tracer.Tracer()
        tr.install()
        t0 = clock()
        try:
            traced = wl.run_pass(clock)
        finally:
            tr.uninstall()
        t_traced = clock() - t0
        tr.dump(OUT / ("spans-%s.jsonl" % tag))
        span_sets = [tr.spans]
    return [untraced, traced], t_untraced, t_traced, span_sets


def end_to_end(wl, workload, passes, spent, setup_times, failed, margins, lines):
    """The end-to-end metrics of an untraced run, with their report lines."""
    ops_done = sum(len(p) for p in passes)
    p50, p90, n, beyond = percentiles([dt for p in passes for _, dt, _ in p])
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ops_done / spent,
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "bar_margin_bits_mean": statistics.fmean(
            min(m, MARGIN_CAP_BITS) for m in margins) if margins else 0.0,
    }
    notes = {
        "setup_s": "median of %d set-ups" % SETUP_REPS,
        "ops_per_s": "%d ops in %.2f s" % (ops_done, spent),
        "op_ms_p50": "n=%d" % n,
        "op_ms_p90": "n=%d, %d beyond" % (n, beyond),
        "bar_margin_bits_mean": "n=%d certified results, each capped at %d bits; "
        "bar_log2_p50 = %.4f" % (len(margins), MARGIN_CAP_BITS,
                                  -statistics.median(margins) if margins else 0.0),
    }
    for name, unit in END_TO_END:
        lines.append("%-22s %14.6f %-5s %s" % (name, metrics[name], unit, notes[name]))
    lines.append("%-22s %14.6f %-5s %d of %d"
                 % ("fail_frac", failed / ops_done, "", failed, ops_done))
    if workload == "verify-all":
        suite = statistics.median(sum(dt for _, dt, _ in p) for p in passes)
        lines.append("%-22s %14.6f %-5s median of %d run_suite(\"all\") passes"
                     % ("suite_s", suite, "s", len(passes)))
    if workload.startswith("lib-"):
        int_a = [dt for p in passes for op, dt, _ in p if op[3]]
        other = [dt for p in passes for op, dt, _ in p if not op[3]]
        lines.append("integer-a share %.4f; op_ms_p50 integer a %.3f ms (n=%d), "
                     "other a %.3f ms (n=%d)"
                     % (len(int_a) / ops_done,
                        1e3 * statistics.median(int_a) if int_a else 0, len(int_a),
                        1e3 * statistics.median(other) if other else 0, len(other)))
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(span_sets, n_ops, t_untraced, t_traced, lines):
    """The per-layer metrics: traced-pass statistics plus the probes."""
    import probes
    import tracer

    metrics = tracer.layer_stats(span_sets, n_ops)
    metrics["trace.overhead_frac"] = 1 - t_untraced / t_traced
    bz = import_bzeta()
    phases = probes.phase_probes(bz)
    for name, ph in phases.items():
        metrics["hasse.table_ms.%s" % name] = ph["table_ms"]
        metrics["hasse.kernel_ms.%s" % name] = ph["kernel_ms"]
        if "head_ms" in ph:
            metrics["hasse.head_ms.%s" % name] = ph["head_ms"]
        lines.append("phase probe %-10s terms %d (full call %d%s), table %.3f ms, "
                     "kernel %.3f ms, live hasse_sum %.3f ms%s"
                     % (name, ph["terms"], ph["full_terms"],
                        ("" if ph["terms"] == ph["full_terms"] else ", MISMATCH")
                        + ("" if ph["same_value"] else ", table value differs"),
                        ph["table_ms"], ph["kernel_ms"], ph["live_ms"],
                        ", full call %.3f ms" % ph["full_ms"] if "full_ms" in ph else ""))
    subs = sum(ph["terms"] * (ph["terms"] + 1) // 2 for ph in phases.values())
    metrics["hasse.table_subs_per_s"] = subs / (
        sum(ph["table_ms"] for ph in phases.values()) / 1e3)
    metrics.update(probes.numkernel_probes(bz))
    metrics["exact.bn_cold_ms"] = probes.exact_bn_cold_ms(import_bzeta)
    metrics.update(probes.verify_probes(import_bzeta()))
    metrics.update(probes.cli_probes(str(ROOT)))
    lines.append("traced pass %.3f s vs untraced %.3f s over %d ops"
                 % (t_traced, t_untraced, n_ops))
    for name, (unit, moves, where) in PER_LAYER.items():
        lines.append("%-30s %14.6f %-10s moves %s on %s"
                     % (name, metrics[name], unit, moves, where))
    return {name: {"value": metrics[name], "unit": unit}
            for name, (unit, _, _) in PER_LAYER.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("lib-real", "lib-complex", "verify-all", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn a termination request into SystemExit, so that every child process
    # is killed and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not (SRC / "bzeta" / "__init__.py").is_file():
        print("error: no bzeta sources at %s" % (SRC / "bzeta"), file=sys.stderr)
        return 2
    # mpmath is imported once, outside the set-up reps, so that every rep
    # times the same work.
    import mpmath  # noqa: F401

    wl = make_workload(args.workload, args.seed)
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = clock()
        wl.setup(import_bzeta() if args.workload != "cli" else None)
        setup_times.append(clock() - t0)

    OUT.mkdir(exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace == 0:
        passes, spent = run_timed(wl, args.seconds)
    else:
        passes, t_untraced, t_traced, span_sets = run_traced(wl, args.workload, tag)

    ops_done = sum(len(p) for p in passes)
    failed = sum(wl.failed(res) for p in passes for _, _, res in p)
    first = [wl.digest(res) for _, _, res in passes[0]]
    repeat_mismatch = sum(
        a != b for p in passes[1:] for a, b in zip(first, (wl.digest(r) for _, _, r in p))
    )
    t0 = clock()
    chk = wl.check([op for op, _, _ in passes[0]], [res for _, _, res in passes[0]])
    oracle_s = clock() - t0
    violations = chk["violations"]
    correct = not violations and not repeat_mismatch
    pass_digest = hashlib.sha256("\n".join(first).encode()).hexdigest()[:16]

    lines = [
        "workload %s seed %d: %d ops in %d passes, %d failed (fail_frac %.4f)"
        % (args.workload, args.seed, ops_done, len(passes), failed, failed / ops_done),
        "oracle (%.1f s, untimed): %d contract violations, %d uncertified bars "
        "not covering the reference, %d repeat-pass digest mismatches"
        % (oracle_s, len(violations), chk["unsound_uncertified"], repeat_mismatch),
    ]
    lines += ["  VIOLATION %s" % json.dumps(v) for v in violations[:20]]
    lines.append("value digest of the pass: %s" % pass_digest)
    if args.trace == 0:
        metrics = end_to_end(wl, args.workload, passes, spent, setup_times, failed,
                             chk["margins"], lines)
    else:
        metrics = per_layer(span_sets, len(passes[1]), t_untraced, t_traced, lines)

    report = {
        "workload": args.workload, "seed": args.seed, "env": env_stamp(),
        "metrics": metrics, "lines": lines, "violations": violations,
        "bar_margin_bits": chk["margins"], "pass_digest": pass_digest,
        "ops": [dict(wl.record(op, res), ms=1e3 * dt) for op, dt, res in passes[0]],
    }
    with open(OUT / ("%s.json" % tag), "w") as fh:
        json.dump(report, fh, indent=1, default=str)

    print("env %s" % json.dumps(report["env"]))
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": ops_done, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
