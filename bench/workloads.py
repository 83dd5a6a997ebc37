"""The benchmark's workloads: seeded inputs, one operation, and its check.

Each workload builds a fixed list of operations (one *pass*) from the seed
and knows how to run one operation and how to check a finished pass
against the references in ``oracle``.  bzeta receives only the generated
values.  Inputs are exact binary numbers (53-bit floats or small dyadic
decimals), so the library and the reference see the same number at any
precision.

Parameters are drawn by stratified sampling (a Latin hypercube per
function family), so every seed covers each range evenly and the mix of
cheap and costly operations is the same from seed to seed.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import random
import subprocess
import sys

import mpmath
from mpmath import mp, mpc, mpf

import oracle

# rel_tol scales with the output precision; 256 bits is the default ctx.
PRECS = {128: "1e-15", 256: "1e-30", 512: "1e-60"}
DEFAULT_PREC = 256


def _strata(rng: random.Random, n: int) -> list[float]:
    """n points in [0, 1), one in each of n equal cells, in random order."""
    cells = list(range(n))
    rng.shuffle(cells)
    return [(c + rng.random()) / n for c in cells]


def _dyadic(x: float, bits: int = 16) -> float:
    return round(x * (1 << bits)) / (1 << bits)


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _away_from_pole(s: float) -> float:
    return s + 0.1 if abs(s - 1) < 0.05 else s


def _away_from_odd(s: float) -> float:
    n = round(s)
    if n % 2 == 1 and abs(s - n) < 2.0**-10:
        return s + 2.0**-9
    return s


def _digest(ev) -> str:
    v = ev.value
    raw = repr(v._mpc_ if isinstance(v, mpc) else v._mpf_)
    return hashlib.sha256(raw.encode()).hexdigest()[:16]


def _exact_str(x) -> str:
    """Exact text of an mpf as man*2^exp."""
    if isinstance(x, mpc):
        return "(%s, %s)" % (_exact_str(x.real), _exact_str(x.imag))
    if not isinstance(x, mpf):
        return str(x)
    sign, man, exp, _ = x._mpf_
    return "%s%d*2^%d" % ("-" if sign else "", man, exp)


def _target_bits(value, bar, rel_tol) -> float | None:
    """log2(target / bar), the margin of a certified bar below its target."""
    with mp.workprec(64):
        av = abs(value)
        target = rel_tol * av if av >= rel_tol else rel_tol
        if bar <= 0:
            return None
        return float(mpmath.log(target / bar, 2))


# ---------------------------------------------------------------------------
# library workloads


class LibWorkload:
    """Closed-loop in-process calls of bzeta's public numeric functions."""

    def __init__(self, name, seed):
        self.name = name
        self.key = "%s:%d" % (name, seed)
        self.ops = []  # (fn, args, prec, int_a)

    def setup(self, bz):
        self.bz = bz
        self.ctxs = {p: bz.PrecisionCtx(prec_bits=p, rel_tol=t) for p, t in PRECS.items()}
        self.ops = self.build()
        for fn, args, prec in self.warmups():
            getattr(bz, fn)(*args, self.ctxs[prec])

    def run_pass(self, clock):
        """Run every operation once; returns [(op, seconds, result)]."""
        out = []
        for op in self.ops:
            t0 = clock()
            res = self.run(op)
            out.append((op, clock() - t0, res))
        return out

    def run(self, op):
        fn, args, prec, _ = op
        try:
            ev = getattr(self.bz, fn)(*args, self.ctxs[prec])
        except Exception as exc:  # an operation that raises is a failed one
            return {"error": "%s: %s" % (type(exc).__name__, exc)}
        return {"ev": ev}

    def failed(self, res) -> bool:
        return "ev" not in res or not res["ev"].converged

    def digest(self, res) -> str:
        if "ev" not in res:
            return "error:" + res["error"]
        ev = res["ev"]
        return "%s:%s:%d:%d" % (
            _digest(ev), mpmath.nstr(ev.abs_err_estimate, 10),
            ev.outer_terms_used, ev.converged,
        )

    def record(self, op, res) -> dict:
        fn, args, prec, int_a = op
        rec = {"fn": fn, "args": [_exact_str(a) for a in args], "prec": prec,
               "int_a": int_a}
        if "ev" in res:
            ev = res["ev"]
            rec.update(digest=_digest(ev), bar=mpmath.nstr(ev.abs_err_estimate, 10),
                       terms=ev.outer_terms_used, converged=ev.converged)
        else:
            rec["error"] = res["error"]
        return rec

    def check(self, ops, results) -> dict:
        """Compare every result with the reference; count contract violations."""
        violations = []
        unsound_uncertified = 0
        margins = []
        jobs = [(fn, args, prec) for (fn, args, prec, _), res in zip(ops, results)
                if "ev" in res]
        refs = iter(oracle.references(jobs))
        for op, res in zip(ops, results):
            fn, args, prec, _ = op
            if "ev" not in res:
                continue
            ev = res["ev"]
            ref = next(refs)
            with mp.workprec(2 * prec):
                dist = abs(ev.value - ref)
            covered = dist <= ev.abs_err_estimate
            if ev.converged:
                if not covered:
                    violations.append({
                        "fn": fn, "args": [_exact_str(a) for a in args], "prec": prec,
                        "dist": mpmath.nstr(dist, 6),
                        "bar": mpmath.nstr(ev.abs_err_estimate, 6),
                    })
                m = _target_bits(ev.value, ev.abs_err_estimate, self.ctxs[prec].rel_tol)
                if m is not None:
                    margins.append(m)
            elif not covered:
                unsound_uncertified += 1
        return {"violations": violations, "margins": margins,
                "unsound_uncertified": unsound_uncertified}


class LibReal(LibWorkload):
    """Real arguments across the numeric API at 128, 256 and 512 bits."""

    # Operations per precision and pass (1398 in all, about 18 s); each
    # family is stratified per precision.  Stieltjes is kept rare because
    # its reference is slow.
    FAMILIES = (
        ("riemann_zeta", 84),
        ("hurwitz_zeta", 84),
        ("zeta_derivative", 56),
        ("digamma", 56),
        ("stieltjes", 4),
        ("beta_closed", 56),
        ("beta_reflection", 56),
        ("beta_prime", 42),
        ("zeta_odd_hasse", 14),
        ("zeta_odd_functional", 14),
    )

    def warmups(self):
        for prec in PRECS:
            yield "riemann_zeta", (mpf(2.5),), prec
            yield "hurwitz_zeta", (mpf(2.5), mpf(0.5)), prec
            yield "zeta_derivative", (mpf(2.5),), prec
            yield "digamma", (mpf(1.5),), prec
            yield "stieltjes", (1, mpf(1.5)), prec
            yield "beta_closed", (mpf(2.5),), prec
            yield "beta_reflection", (mpf(2.5),), prec
            yield "beta_prime", (mpf(2.5),), prec
            yield "zeta_odd_hasse", (1,), prec
            yield "zeta_odd_functional", (1,), prec

    @staticmethod
    def _args(fn, u1, u2):
        if fn in ("riemann_zeta", "zeta_derivative"):
            return (mpf(_away_from_pole(_dyadic(-60 + 100 * u1))),)
        if fn == "hurwitz_zeta":
            return (mpf(_away_from_pole(_dyadic(-60 + 100 * u1))),
                    mpf(_log_uniform(u2, 1e-6, 1e6)))
        if fn == "digamma":
            return (mpf(_log_uniform(u1, 1e-6, 1e6)),)
        if fn == "stieltjes":
            return (int(u1 * 11), mpf(_log_uniform(u2, 0.1, 100)))
        if fn in ("beta_closed", "beta_reflection", "beta_prime"):
            s = _away_from_odd(_dyadic(-1 + 2.0**-8 + (21 - 2.0**-7) * u1))
            return (mpf(_away_from_pole(s) if fn == "beta_reflection" else s),)
        return (1 + int(u1 * 10),)  # zeta_odd_*: n in 1..10

    def build(self):
        rng = random.Random(self.key)
        ops = []
        for fn, n in self.FAMILIES:
            for prec in PRECS:
                for u1, u2 in zip(_strata(rng, n), _strata(rng, n)):
                    args = self._args(fn, u1, u2)
                    int_a = fn in ("riemann_zeta", "zeta_derivative") or (
                        fn == "hurwitz_zeta" and args[1] == int(args[1])
                    )
                    ops.append((fn, args, prec, int_a))
        rng.shuffle(ops)
        return ops


class LibComplex(LibWorkload):
    """Complex s near the critical strip, |Im s| from 10 to 1000, default ctx."""

    FAMILIES = (
        ("riemann_zeta", 40),
        ("hurwitz_zeta", 40),
        ("zeta_derivative", 40),
        ("beta_closed", 40),
        ("functional_equation_check", 40),
    )

    def warmups(self):
        s = mpc(0.5, 10)
        yield "riemann_zeta", (s,), DEFAULT_PREC
        yield "hurwitz_zeta", (s, mpf(0.5)), DEFAULT_PREC
        yield "zeta_derivative", (s,), DEFAULT_PREC
        yield "beta_closed", (s,), DEFAULT_PREC
        yield "functional_equation_check", (s,), DEFAULT_PREC

    def build(self):
        rng = random.Random(self.key)
        ops = []
        for fn, n in self.FAMILIES:
            u1, u2, u3 = _strata(rng, n), _strata(rng, n), _strata(rng, n)
            for i in range(n):
                re = _dyadic(-0.5 + 2 * u1[i])
                im = _dyadic(_log_uniform(u2[i], 10, 1000)) * (1 if (i // 2) % 2 else -1)
                s = mpc(mpf(re), mpf(im))
                if fn == "hurwitz_zeta":
                    if i % 2:
                        a = mpf(1 + int(u3[i] * 2))
                    else:
                        a = mpf(_dyadic(2 * u3[i]) or 2.0**-16)
                        if a == int(a):
                            a += mpf(2) ** -16
                    args = (s, a)
                else:
                    args = (s,)
                int_a = fn != "hurwitz_zeta" or args[1] == int(args[1])
                ops.append((fn, args, DEFAULT_PREC, int_a))
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# identity suite


class VerifyAll:
    """Repeated in-process ``verify.run_suite("all")`` at the default ctx.

    One operation is one catalog entry as run_suite invokes it: the
    entries are timed by wrapping the callables of ``verify.CATALOG``
    while the real run_suite executes.  The catalog is fixed, so the seed
    does not change the inputs.
    """

    def __init__(self, name, seed):
        pass

    def setup(self, bz):
        self.bz = bz
        self.verify = importlib.import_module("bzeta.verify")
        ctx = bz.DEFAULT_CTX
        bz.riemann_zeta(mpf(2.5), ctx)
        bz.hurwitz_zeta(mpf(2.5), mpf(0.5), ctx)
        bz.zeta_derivative(mpf(2.5), ctx)
        bz.digamma(mpf(1.5), ctx)
        bz.stieltjes(1, mpf(1.5), ctx)
        bz.beta_closed(mpf(2.5), ctx)
        bz.beta_prime(mpf(2.5), ctx)
        bz.zeta_odd_hasse(1, ctx)
        bz.zeta_odd_functional(1, ctx)
        bz.bernoulli_recurrence(40)
        bz.stirling1_signed(20, 5)
        bz.stirling2(20, 5)

    def run_pass(self, clock):
        """One run_suite("all"); returns [(entry id, seconds, check results)]."""
        catalog = self.verify.CATALOG
        timed = []
        originals = dict(catalog)

        def timing(cid, fn):
            def entry(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                timed.append((cid, clock() - t0, out))
                return out
            return entry

        for cid, fn in originals.items():
            catalog[cid] = timing(cid, fn)
        try:
            self.verify.run_suite("all")
        finally:
            catalog.update(originals)
        return timed

    def failed(self, res) -> bool:
        return not all(r.passed for r in res)

    def digest(self, res) -> str:
        return ";".join(
            "%s:%s:%s:%d" % (r.check_id, mpmath.nstr(r.residual, 10),
                             mpmath.nstr(r.tolerance, 10), r.passed)
            for r in res
        )

    def record(self, cid, res) -> dict:
        return {"entry": cid, "checks": len(res),
                "passed": all(r.passed for r in res),
                "digest": hashlib.sha256(self.digest(res).encode()).hexdigest()[:16]}

    def check(self, ops, results) -> dict:
        """The catalog is its own oracle; the bar metric reads the tolerances.

        A residual check's tolerance is the combined error bar of its two
        routes, so log2(rel_tol / tolerance) is the margin of those bars
        below the default tolerance.
        """
        rel_tol = self.bz.DEFAULT_CTX.rel_tol
        margins = []
        with mp.workprec(64):
            for res in results:
                for r in res:
                    if r.tolerance > 0:
                        margins.append(float(mpmath.log(rel_tol / r.tolerance, 2)))
        return {"violations": [], "margins": margins, "unsound_uncertified": 0}


# ---------------------------------------------------------------------------
# command line


def _dec(x: float) -> str:
    """Shortest decimal text of a dyadic float; exact, since x is dyadic."""
    return repr(x)


class Cli:
    """Sequential ``python -m bzeta.cli`` children, one at a time."""

    SCALE = 5  # a pass of 46 * SCALE commands, about 18 s

    def __init__(self, name, seed, root):
        self.key = "%s:%d" % (name, seed)
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.ops = []

    def setup(self, bz):
        self.ops = self.build()
        self._spawn(["bn", "2"], None)

    def build(self):
        rng = random.Random(self.key)

        def each(n):
            return _strata(rng, n)

        def real(u, lo, hi, bits=8):
            return _dec(_dyadic(lo + (hi - lo) * u, bits))

        def beta_s(u):
            return _dec(_away_from_odd(_dyadic(-0.99 + 20.98 * u, 8)))

        k = self.SCALE
        ops = [["bn", str(int(u * 301))] for u in each(8 * k)]
        ops += [["bpoly", str(int(u * 41))] for u in each(4 * k)]
        for i, u in enumerate(each(4 * k)):
            n = 10 + int(u * 40)
            ops.append(["stirling", str(1 + i % 2), str(n), str(1 + n // 3)])
        ops += [["zeta", _dec(_away_from_pole(_dyadic(-20 + 50 * u, 8)))]
                for u in each(4 * k)]
        ops += [["zeta", "%s,%s" % (real(u, 0, 1), real(v, 10, 100))]
                for u, v in zip(each(2 * k), each(2 * k))]
        ops += [["hzeta", _dec(_away_from_pole(_dyadic(-10 + 40 * u, 8))),
                 _dec(_dyadic(_log_uniform(v, 0.01, 100), 12))]
                for u, v in zip(each(4 * k), each(4 * k))]
        ops += [["digamma", _dec(_dyadic(_log_uniform(u, 0.01, 1000), 12))]
                for u in each(4 * k)]
        ops += [["beta", beta_s(u)] for u in each(4 * k)]
        ops += [["beta-prime", beta_s(u)] for u in each(4 * k)]
        for u in each(2 * k):
            ops.append(["zeta-odd", str(1 + int(u * 10))])
            ops.append(["zeta-odd", str(1 + int(u * 10)), "--route", "functional"])
        for i, u in enumerate(each(2 * k)):
            start = _dyadic(0.5 + 4 * u, 4)
            ops.append(["sample", ("beta", "zeta")[i % 2], _dec(start), _dec(start + 1), "0.5"])
        ops += [["verify", "--suite", "exact"]] * (2 * k)
        rng.shuffle(ops)
        return ops

    def _spawn(self, argv, span_path):
        if span_path is None:
            cmd = [sys.executable, "-m", "bzeta.cli"] + argv
        else:
            child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
            cmd = [sys.executable, child, span_path] + argv
        if argv[0] != "sample":
            cmd += ["--format", "json"]
        return subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=120)

    def run_pass(self, clock, span_dir=None):
        """Run every command once; with span_dir, each child traces itself
        and writes its spans to span_dir/<index>.jsonl."""
        out = []
        for i, op in enumerate(self.ops):
            path = None if span_dir is None else os.path.join(span_dir, "%d.jsonl" % i)
            t0 = clock()
            res = self.run(op, path)
            out.append((op, clock() - t0, res))
        return out

    def run(self, op, span_path=None):
        proc = self._spawn(op, span_path)
        return {"rc": proc.returncode, "out": proc.stdout, "err": proc.stderr[-400:]}

    def failed(self, res) -> bool:
        return res["rc"] != 0

    def digest(self, res) -> str:
        return "%d:%s" % (res["rc"], hashlib.sha256(res["out"].encode()).hexdigest()[:16])

    def record(self, op, res) -> dict:
        return {"argv": op, "rc": res["rc"], "digest": self.digest(res)}

    # -- checking ---------------------------------------------------------

    def check(self, ops, results) -> dict:
        violations = []
        margins = []
        rel_tol = mpf("1e-30")

        def bad(op, why):
            violations.append({"argv": op, "why": why})

        for op, res in zip(ops, results):
            if res["rc"] != 0:
                continue  # counted as failed, not as a wrong answer
            cmd = op[0]
            try:
                if cmd in ("bn", "bpoly", "stirling"):
                    got = json.loads(res["out"])["result"]
                    if cmd == "bn":
                        want = str(oracle.bernoulli(int(op[1])))
                    elif cmd == "bpoly":
                        got = json.loads(got)
                        want = [str(c) for c in oracle.bernoulli_poly_coeffs(int(op[1]))]
                    else:
                        fn = oracle.stirling1_signed if op[1] == "1" else oracle.stirling2
                        want = str(fn(int(op[2]), int(op[3])))
                    if got != want:
                        bad(op, "exact value differs")
                elif cmd == "verify":
                    if not json.loads(res["out"])["passed"]:
                        bad(op, "suite reported failures with exit code 0")
                elif cmd == "sample":
                    for row in res["out"].strip().splitlines()[1:]:
                        s, re_, im_, err, conv = row.split(",")
                        fn = {"beta": "beta_closed", "beta-prime": "beta_prime",
                              "zeta": "riemann_zeta"}[op[1]]
                        m = self._check_value(fn, (s,), re_, im_, err, conv == "true")
                        if m is False:
                            bad(op, "row %s outside its bar" % s)
                else:
                    doc = json.loads(res["out"])["result"]
                    fn, args = self._numeric(op)
                    m = self._check_value(fn, args, doc["value"]["re"], doc["value"]["im"],
                                          doc["abs_err"], doc["converged"])
                    if m is False:
                        bad(op, "value outside its bar")
                    elif m is not None:
                        margins.append(m)
            except (ValueError, KeyError, IndexError) as exc:
                bad(op, "unreadable output: %s" % exc)
        return {"violations": violations, "margins": margins, "unsound_uncertified": 0}

    @staticmethod
    def _numeric(op):
        cmd = op[0]
        if cmd == "zeta":
            return "riemann_zeta", (op[1],)
        if cmd == "hzeta":
            return "hurwitz_zeta", (op[1], op[2])
        if cmd == "digamma":
            return "digamma", (op[1],)
        if cmd == "beta":
            return "beta_closed", (op[1],)
        if cmd == "beta-prime":
            return "beta_prime", (op[1],)
        if cmd == "zeta-odd":
            return "zeta_odd_hasse", (int(op[1]),)
        raise KeyError(cmd)

    def _check_value(self, fn, args, re_, im_, err, converged):
        """False if a certified printed value misses the reference by more
        than its bar (plus the last printed digit); else its margin bits."""
        if not converged:
            return None
        prec = 2 * DEFAULT_PREC
        with mp.workprec(prec):
            vals = []
            for a in args:
                if isinstance(a, str) and "," in a:
                    x, y = a.split(",")
                    vals.append(mpc(mpf(x), mpf(y)))
                else:
                    vals.append(mpf(a) if isinstance(a, str) else a)
            ref = oracle.reference(fn, tuple(vals), DEFAULT_PREC)
            value = mpc(mpf(re_), mpf(im_))
            bar = mpf(err)
            digits = math.ceil(DEFAULT_PREC * math.log10(2)) - 5
            slack = abs(value) * mpf(10) ** (1 - digits)
            if abs(value - ref) > bar + slack:
                return False
        return _target_bits(value, bar, rel_tol=mpf("1e-30"))
