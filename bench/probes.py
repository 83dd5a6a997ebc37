"""Per-layer probes through public calls, run after a traced pass.

Phase probe: the table, kernel and head phases of a shifted zeta call are
separated with the public ``hasse_sum`` and kernels the benchmark owns.
Each kernel is (k + a2)^(1 - s) with a2 = 1 + shift, the shift being the
one ``riemann_zeta`` picks for the probe's argument (recomputed here from
the documented policy; the probe checks that its term count matches the
full call's).  A probe is timed three ways:

* ``table_ms``  -- hasse_sum over pre-evaluated kernel values, so only the
  difference table and its rounding are timed;
* ``kernel_ms`` -- the time spent inside a live kernel's callbacks;
* ``head_ms``   -- derived: the full public call minus the live hasse_sum,
  i.e. the a^-s head sum plus assembly.

The table's work is reported as a computed subtraction count, sum of m
over the m = 1..M rows of an M-term table.
"""

from __future__ import annotations

import importlib
import math
import os
import statistics
import subprocess
import sys
import time

import mpmath
from mpmath import mp, mpc, mpf

clock = time.perf_counter

PHASE_PROBES = (
    # name, s, prec_bits, rel_tol
    ("real256", mpf("2.5"), 256, "1e-30"),
    ("real512", mpf("2.5"), 512, "1e-60"),
    ("complex256", mpc(mpf("0.5"), mpf(100)), 256, "1e-30"),
)
CAP_PROBE_S = mpf("0.5")  # b_s_of_one's unshifted kernel (1+k)^s hits the cap
REPS = 3


def _median_time(fn, reps=REPS):
    times = []
    for _ in range(reps):
        t0 = clock()
        fn()
        times.append(clock() - t0)
    return statistics.median(times)


def _riemann_shift(s, rel_tol) -> int:
    """The shift riemann_zeta applies (a = 1): 0.55 tolerance bits + 8 +
    4.6 |Im s|, minus floor(a)."""
    bits = max(12, math.ceil(-math.log2(float(rel_tol))))
    im = abs(float(mpmath.im(s)))
    return max(0, math.ceil(0.55 * bits) + 8 + math.ceil(4.6 * im) - 1)


def _phase(bz, ctx, expo, a2, full_call):
    """Time one kernel (k + a2)^expo through hasse_sum; returns a dict."""
    spent = [0.0]

    def live(k):
        t0 = clock()
        v = mpmath.power(k + a2, expo)
        spent[0] += clock() - t0
        return v

    live_times, kernel_times = [], []
    for _ in range(REPS):
        spent[0] = 0.0
        t0 = clock()
        ev_live = bz.hasse_sum(live, ctx)
        live_times.append(clock() - t0)
        kernel_times.append(spent[0])
    terms = ev_live.outer_terms_used
    with mp.workprec(ctx.work_bits):
        values = [mpmath.power(k + a2, expo) for k in range(terms + 1)]
    ev_table = bz.hasse_sum(values.__getitem__, ctx)
    out = {
        "terms": terms,
        "table_ms": 1e3 * _median_time(lambda: bz.hasse_sum(values.__getitem__, ctx)),
        "kernel_ms": 1e3 * statistics.median(kernel_times),
        "live_ms": 1e3 * statistics.median(live_times),
        "same_value": ev_table.value == ev_live.value,
    }
    if full_call is not None:
        full = full_call()
        out["full_ms"] = 1e3 * _median_time(full_call)
        out["head_ms"] = out["full_ms"] - out["live_ms"]
        out["full_terms"] = full.outer_terms_used
    return out


def phase_probes(bz) -> dict:
    res = {}
    for name, s, prec, tol in PHASE_PROBES:
        ctx = bz.PrecisionCtx(prec_bits=prec, rel_tol=tol)
        shift = _riemann_shift(s, tol)
        with mp.workprec(ctx.work_bits):
            expo = 1 - s
            a2 = mpf(1 + shift)
        res[name] = _phase(bz, ctx, expo, a2, lambda: bz.riemann_zeta(s, ctx))
    ctx = bz.DEFAULT_CTX
    cap = _phase(bz, ctx, CAP_PROBE_S, mpf(1), None)
    cap["full_terms"] = bz.b_s_of_one(CAP_PROBE_S, ctx).outer_terms_used
    res["cap400"] = cap
    return res


def numkernel_probes(bz) -> dict:
    ctx = bz.DEFAULT_CTX
    x_real, x_cplx, x_trig = mpf("3.3"), mpc(mpf("1.5"), mpf(100)), mpf("7.3")
    bz.gamma_ap(x_real, ctx), bz.gamma_ap(x_cplx, ctx)  # Spouge table filled

    def per_call_us(fn, n=40):
        return 1e6 * _median_time(lambda: [fn() for _ in range(n)], reps=5) / n

    return {
        "numkernel.gamma_ap_us.real": per_call_us(lambda: bz.gamma_ap(x_real, ctx)),
        "numkernel.gamma_ap_us.complex": per_call_us(lambda: bz.gamma_ap(x_cplx, ctx)),
        "numkernel.trig_us": per_call_us(lambda: bz.cos_pi(x_trig, ctx), n=200),
    }


def exact_bn_cold_ms(import_bzeta) -> float:
    """bernoulli_recurrence(300) on a freshly imported package (empty caches)."""
    times = []
    for _ in range(REPS):
        bz = import_bzeta()
        t0 = clock()
        bz.bernoulli_recurrence(300)
        times.append(clock() - t0)
    return 1e3 * statistics.median(times)


def verify_probes(bz) -> dict:
    verify = importlib.import_module("bzeta.verify")
    out = {}
    for suite in ("exact", "zeta", "beta"):
        t0 = clock()
        verify.run_suite(suite)
        out["verify.suite_ms.%s" % suite] = 1e3 * (clock() - t0)
    return out


def cli_probes(root) -> dict:
    """Interpreter start, import of bzeta.cli, and one command's own work."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmds = {
        "spawn": [sys.executable, "-c", "pass"],
        "import": [sys.executable, "-c", "import bzeta.cli"],
        "run": [sys.executable, "-m", "bzeta.cli", "zeta", "3"],
    }
    times = {k: [] for k in cmds}
    for _ in range(5):
        for key, cmd in cmds.items():
            t0 = clock()
            subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=60,
                           check=True)
            times[key].append(clock() - t0)
    med = {k: 1e3 * statistics.median(v) for k, v in times.items()}
    return {
        "cli.spawn_ms": med["spawn"],
        "cli.import_ms": med["import"] - med["spawn"],
        "cli.run_ms": med["run"] - med["import"],
    }
