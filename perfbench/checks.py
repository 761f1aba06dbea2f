"""Output checks on CLI results; each returns None or a failure message.

A check takes the call's captured stdout and the bytes of the file the
call wrote (None for calls that write none). The exit code and the
byte-identity of outputs across runs are checked by the runner.
"""

import csv
import io
import re

import numpy as np


def _rows(data):
    return list(csv.DictReader(io.StringIO(data.decode())))


def point_rate(criterion, floor, acceptance):
    """Point-load study rate against a criterion's EOC threshold.

    At the acceptance configuration the last EOC and the least-squares
    rate over all levels must both reach the criterion's threshold.
    At other seeds the load sits anywhere in its cell, and the last EOC
    swings with that place: over 2D seeds 1-99 it fell to 0.68 while the
    fitted rate stayed at or above 0.86. So there only the fitted rate
    is checked, against `floor`.
    """
    def check(stdout, data):
        rows = _rows(data)
        h = np.log([float(r["h"]) for r in rows])
        err = np.log([float(r["error_l2"]) for r in rows])
        rate = float(np.polyfit(h, err, 1)[0])
        need = criterion if acceptance else floor
        if not rate >= need:
            return "fitted rate %.4f < %.2f" % (rate, need)
        last = float(rows[-1]["eoc"])
        if acceptance and not last >= criterion:
            return "last EOC %.4f < %.2f" % (last, criterion)
        return None
    return check


def eoc_range(lo, hi):
    """Every EOC of a study lies in [lo, hi] (criterion 3)."""
    def check(stdout, data):
        rates = [float(r["eoc"]) for r in _rows(data)[1:]]
        if not rates or not all(lo <= r <= hi for r in rates):
            return "EOCs %s outside [%g, %g]" % (rates, lo, hi)
        return None
    return check


def solve_field(dim, n, simplices_per_cube, tol):
    """Solver residual within tol and VTK counts matching the mesh."""
    def check(stdout, data):
        m = re.search(r"residual=(\S+)", stdout)
        if m is None or not float(m.group(1)) <= tol:
            return "residual missing or above %g" % tol
        text = data.decode()
        points = re.search(r"^POINTS (\d+) ", text, re.M)
        cells = re.search(r"^CELLS (\d+) ", text, re.M)
        want = ((n + 1) ** dim, n ** dim * simplices_per_cube)
        got = tuple(int(x.group(1)) if x else -1 for x in (points, cells))
        if got != want:
            return "VTK POINTS/CELLS %s, mesh has %s" % (got, want)
        return None
    return check


def korn_range(stdout, data):
    """Every Korn pencil lambda_min lies in [0.5, 1]."""
    lams = [float(r["lambda_min"]) for r in _rows(data)]
    if not lams or not all(0.5 <= v <= 1.0 for v in lams):
        return "lambda_min %s outside [0.5, 1]" % lams
    return None


def infsup_restriction(stdout, data):
    """alpha_A_kernel <= alpha_A_full + 1e-10 on every level."""
    rows = _rows(data)
    bad = [r["n"] for r in rows
           if not float(r["alpha_A_kernel"]) <= float(r["alpha_A_full"])
           + 1e-10]
    if not rows or bad:
        return "kernel alpha above full alpha at n=%s" % bad
    return None


def a2_at_least_one(stdout, data):
    """The sampled A2 characteristic is at least 1."""
    m = re.search(r"lower bound\): (\S+)", stdout)
    if m is None or not float(m.group(1)) >= 1.0:
        return "A2 estimate missing or below 1"
    return None
