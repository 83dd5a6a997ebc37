"""Independent reference values, computed with mpmath alone.

Every reference is evaluated at twice the precision the library was asked
for, on the very same exact binary inputs the library received.  Nothing
here imports bzeta.

mpmath's Hurwitz zeta stops on an absolute tolerance, which makes it take
seconds for large shifts where the value is huge (a > 1e3 with Re s < 1);
there the reference is the Euler-Maclaurin expansion at a, summed until
its terms fall below the working precision relative to the value.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from math import comb

import mpmath
from mpmath import mp, mpf

EM_MIN_SHIFT = 1000
WORKERS = 2  # the references are computed after the timing, on both cores


def _hurwitz_em(s, a):
    """zeta(s, a) = a^(1-s)/(s-1) + a^-s/2 + sum_j B_2j/(2j)! (s)_(2j-1) a^(1-s-2j)."""
    total = mpmath.power(a, 1 - s) / (s - 1) + mpmath.power(a, -s) / 2
    eps = mpf(2) ** (-mp.prec)
    rising = s  # s (s+1) ... (s+2j-2)
    apow = mpmath.power(a, -s - 1)
    fact = 2  # (2j)!
    inv_a2 = 1 / (a * a)
    for j in range(1, 4 * mp.prec):
        t = mpmath.bernoulli(2 * j) / fact * rising * apow
        total += t
        if j > 2 and abs(t) <= eps * abs(total):
            return total
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        apow *= inv_a2
        fact *= (2 * j + 1) * (2 * j + 2)
    raise ArithmeticError("Euler-Maclaurin reference did not converge")


def hurwitz(s, a):
    if a > EM_MIN_SHIFT:
        return _hurwitz_em(s, a)
    return mpmath.zeta(s, a)


def _closed_factor(s):
    """2 Gamma(s+1) (2 pi)^-s cos(pi s/2) cos(pi (1-s))."""
    return (
        2 * mpmath.gamma(s + 1) * mpmath.power(2 * mp.pi, -s)
        * mpmath.cospi(s / 2) * mpmath.cospi(1 - s)
    )


def _closed_factor_prime(s):
    """Derivative of _closed_factor, term by term (real s > -1)."""
    g = 2 * mpmath.gamma(s + 1) * mpmath.power(2 * mp.pi, -s)
    c0 = mpmath.cospi(s / 2)
    c1 = mpmath.cospi(1 - s)
    dlog = mpmath.psi(0, s + 1) - mpmath.log(2 * mp.pi)
    return g * (
        dlog * c0 * c1
        - (mp.pi / 2) * mpmath.sinpi(s / 2) * c1
        + mp.pi * c0 * mpmath.sinpi(1 - s)
    )


def reference(fn: str, args: tuple, prec: int):
    """Reference value of library function fn at args, at 2*prec bits."""
    with mp.workprec(2 * prec):
        if fn == "riemann_zeta":
            return mpmath.zeta(args[0])
        if fn == "hurwitz_zeta":
            return hurwitz(args[0], args[1])
        if fn == "zeta_derivative":
            return mpmath.zeta(args[0], 1, 1)
        if fn == "digamma":
            return mpmath.psi(0, args[0])
        if fn == "stieltjes":
            return mpmath.stieltjes(args[0], args[1])
        if fn == "beta_closed":
            if args[0] == 1:
                return mpf(-0.5)  # the product's removable singularity
            return _closed_factor(args[0]) * mpmath.zeta(args[0])
        if fn == "beta_reflection":
            s = args[0]
            return (1 - s) * mpmath.zeta(s) * mpmath.cospi(s)
        if fn == "beta_prime":
            s = args[0]
            return (
                _closed_factor_prime(s) * mpmath.zeta(s)
                + _closed_factor(s) * mpmath.zeta(s, 1, 1)
            )
        if fn in ("zeta_odd_hasse", "zeta_odd_functional"):
            return mpmath.zeta(2 * args[0] + 1)
        if fn == "functional_equation_check":
            return mpf(0)  # the residual of an identity
    raise KeyError(fn)


def references(jobs) -> list:
    """reference(fn, args, prec) for each job, in order, on WORKERS processes.

    The jobs are dealt round-robin to WORKERS child interpreters running this
    file, which read their pickled jobs on stdin and write the pickled
    references on stdout.  Plain child processes, each waited for on every
    path out, leave nothing running behind (a multiprocessing pool would
    start a resource-tracker process that outlives the run).
    """
    procs = []
    try:
        for i in range(WORKERS):
            proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            procs.append(proc)
            proc.stdin.write(pickle.dumps(jobs[i::WORKERS]))
            proc.stdin.close()
        refs = [None] * len(jobs)
        for i, proc in enumerate(procs):
            out = proc.stdout.read()
            if proc.wait() != 0:
                raise RuntimeError("oracle worker exited with code %d" % proc.returncode)
            refs[i::WORKERS] = pickle.loads(out)
        return refs
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()


# ---------------------------------------------------------------------------
# exact references for the command-line workload


def bernoulli(n: int) -> Fraction:
    p, q = mpmath.bernfrac(n)
    return Fraction(int(p), int(q))


def bernoulli_poly_coeffs(n: int) -> list[Fraction]:
    """Coefficients of B_n(x), ascending powers of x."""
    return [comb(n, n - j) * bernoulli(n - j) for j in range(n + 1)]


def stirling2(n: int, k: int) -> int:
    """Second kind, from the explicit alternating sum."""
    total = sum((-1) ** (k - j) * comb(k, j) * j**n for j in range(k + 1))
    fact = 1
    for i in range(2, k + 1):
        fact *= i
    return total // fact


def stirling1_signed(n: int, k: int) -> int:
    """Signed first kind, as the coefficient of x^k in x(x-1)...(x-n+1)."""
    coeffs = [1]
    for j in range(n):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= j * c
        coeffs = nxt
    return coeffs[k] if k < len(coeffs) else 0


if __name__ == "__main__":
    # An oracle worker: pickled [(fn, args, prec)] in, pickled references out.
    _jobs = pickle.load(sys.stdin.buffer)
    sys.stdout.buffer.write(pickle.dumps([reference(*job) for job in _jobs]))
