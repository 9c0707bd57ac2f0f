"""Arbitrary-precision reference for the binomial tail row.

Enforces the accuracy claim in the ``binomial_tail`` docstring: relative
1e-10 for n up to 4096, p within 1e-12 of either end, and the phase-error
bound at detection rates down to 1e-10.
"""

import pytest

from rrdps import security as sec

mpmath = pytest.importorskip("mpmath")


def mp_tails(n: int, p: float) -> list:
    """P[Y > s] for s = 0..n-1 at 40 significant digits (mpmath values).

    ``mpmath.mpf(p)`` is exact, so this is the tail of the same double the
    production code receives.
    """
    with mpmath.workdps(40):
        pp = mpmath.mpf(p)
        ratio = pp / (1 - pp)
        term = (1 - pp) ** n
        pmf = [term]
        for y in range(n):
            term = term * (n - y) / (y + 1) * ratio
            pmf.append(term)
        tails = []
        acc = mpmath.mpf(0)
        for y in range(n, 0, -1):
            acc += pmf[y]
            tails.append(acc)
        return tails[::-1]


REFERENCE_NS = (3, 32, 256, 1024, 4096)


class TestTailRowAgainstMpmath:
    @pytest.mark.parametrize("n", REFERENCE_NS)
    def test_every_tail_within_relative_1e10(self, n):
        for p in (1e-12, 1e-6, 0.3, 0.5, 1 - 1e-6, 1 - 1e-12):
            got = sec._tail_row(n, p)
            with mpmath.workdps(40):
                for s, want in enumerate(mp_tails(n, p)):
                    if want > 1e-300:
                        dev = abs(mpmath.mpf(float(got[s])) - want) / want
                        assert dev <= 1e-10, (n, p, s, float(want))
            for s in (0, n // 2, n - 1):
                assert sec.binomial_tail(n, s, p) == got[s]

    @pytest.mark.parametrize("n", REFERENCE_NS)
    def test_phase_error_upper_down_to_q_1e10(self, n):
        for c in (1e-12, 0.01, 0.3, 1 - 1e-12):
            tails = mp_tails(n, c)
            for q in (1.0, 1e-3, 1e-10):
                with mpmath.workdps(40):
                    terms = (min(t / q, 1) for t in tails[: n - 1])
                    want = mpmath.fsum(terms) / (n - 1)
                    got = sec.phase_error_upper(n, c, q)
                    assert abs(got - want) <= 1e-10 * want, (n, c, q)
