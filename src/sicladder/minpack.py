"""MINPACK's Levenberg-Marquardt (lmder), for the fiducial searches.

This is scipy.optimize.least_squares(method="lm") with its default
2-point finite-difference Jacobian, column scaling from the Jacobian and
factor 100, and the searches' tolerances, written so that it gives the same
bits as scipy 1.17 on a clean heap. scipy's C qrfac, when it recomputes a
downdated column norm, takes one entry too many: the first entry of the
next column, or, for the last column, the 8 bytes after the Jacobian, so
scipy's step depended on heap contents. The next-column entry is kept
here, as scipy computes it; past the last column 0.0 is taken, which is
what a clean heap holds there.

Sums run left to right, as the Fortran loops do (np.cumsum on the m-long
columns, plain Python on the n x n triangle); NumPy's pairwise sums, and
np.float64 ** 2 (a pow call), would round differently. Indices are 0-based.
"""
import math

import numpy as np

_EPS = float(np.finfo(float).eps)
# ftol = xtol = gtol, as the fiducial searches set them
_TOL = 1e-15
_TINY = float(np.finfo(float).tiny)
# the range limits of scipy's C enorm (MINPACK's Fortran has 3.834e-20, 1.304e19)
_RDWARF, _RGIANT = 3.833233541708435e-20, 1.3043817825332783e+19


def _sum(v):
    """Left-to-right sum of a nonempty array, from 0.0, as a Fortran
    accumulation loop."""
    return float(v.cumsum()[-1]) + 0.0


def _dot(u, v):
    """Left-to-right sum of u[i] * v[i] over two lists."""
    s = 0.0
    for a, b in zip(u, v):
        s += a * b
    return s


def _enorm(x):
    """Euclidean norm with MINPACK's three-range scaling, of an array or a
    list."""
    if isinstance(x, np.ndarray):
        xabs = np.abs(x)
        # zeros add nothing in any range; without tiny or huge entries the
        # norm is the plain sum of squares
        if xabs.max() < _RGIANT / len(xabs) and not xabs[xabs <= _RDWARF].any():
            return math.sqrt(_sum(xabs * xabs))
        x = xabs.tolist()
    agiant = _RGIANT / len(x)
    s1 = s2 = s3 = x1max = x3max = 0.0
    for v in map(abs, x):
        if _RDWARF < v < agiant:
            s2 += v * v
        elif v <= _RDWARF:
            if v > x3max:
                r = x3max / v
                s3, x3max = 1.0 + s3 * (r * r), v
            elif v != 0:
                r = v / x3max
                s3 += r * r
        elif v > x1max:
            r = x1max / v
            s1, x1max = 1.0 + s1 * (r * r), v
        else:
            r = v / x1max
            s1 += r * r
    if s1 != 0:
        return x1max * math.sqrt(s1 + (s2 / x1max) / x1max)
    if s2 != 0:
        if s2 >= x3max:
            return math.sqrt(s2 * (1.0 + (x3max / s2) * (x3max * s3)))
        return math.sqrt(x3max * ((s2 / x3max) + (x3max * s3)))
    return x3max * math.sqrt(s3)


def _jacobian(fun, x, f0):
    """scipy's 2-point difference with its default relative step, as an
    m x n array with contiguous columns."""
    h = 2.0 ** -26 * ((x >= 0) * 2.0 - 1) * np.maximum(1.0, np.abs(x))
    Jt = np.empty((len(x), len(f0)))
    for i in range(len(x)):
        x1 = x.copy()
        x1[i] = x[i] + h[i]
        Jt[i] = (fun(x1) - f0) / ((x[i] + h[i]) - x[i])
    return Jt.T


def _qrfac(a):
    """Householder QR of a (m x n, in place) with column pivoting.

    Returns (ipvt, rdiag, acnorm) as lists; a holds R above the diagonal
    and the Householder vectors on and below it, as MINPACK's qrfac leaves
    them.
    """
    m, n = a.shape
    acnorm = [_enorm(a[:, j]) for j in range(n)]
    rdiag, wa, ipvt = acnorm[:], acnorm[:], list(range(n))
    for j in range(min(m, n)):
        kmax = max(range(j, n), key=lambda k: (rdiag[k], -k))
        if kmax != j:
            a[:, [j, kmax]] = a[:, [kmax, j]]
            rdiag[kmax], wa[kmax] = rdiag[j], wa[j]
            ipvt[j], ipvt[kmax] = ipvt[kmax], ipvt[j]
        ajnorm = _enorm(a[j:, j])
        if ajnorm != 0:
            if a[j, j] < 0:
                ajnorm = -ajnorm
            a[j:, j] /= ajnorm
            a[j, j] += 1.0
            # the columns right of j, each as MINPACK's loop over k does it
            u, rest = a[j:, j:j + 1], a[j:, j + 1:]
            rest -= ((u * rest).cumsum(axis=0)[-1:] + 0.0) / a[j, j] * u
            for k in range(j + 1, n):
                if rdiag[k] != 0:
                    temp = a[j, k] / rdiag[k]
                    rdiag[k] *= math.sqrt(max(0.0, 1.0 - temp * temp))
                    temp = rdiag[k] / wa[k]
                    if 0.05 * (temp * temp) <= _EPS:
                        nxt = a[0, k + 1] if k + 1 < n else 0.0
                        rdiag[k] = wa[k] = _enorm(np.append(a[j + 1:, k], nxt))
        rdiag[j] = -ajnorm
    return ipvt, rdiag, acnorm


def _qrsolv(r, ipvt, diag, qtb, sdiag):
    """Least-squares solution of [A; D] x = [b; 0] from A's pivoted QR (r,
    n x n lists). r's strict lower triangle and sdiag receive the factor
    of the augmented system; r's diagonal and upper triangle are kept."""
    n = len(r)
    for j in range(n):
        for i in range(j, n):
            r[i][j] = r[j][i]
    x = [r[j][j] for j in range(n)]
    wa = qtb[:]
    for j in range(n):
        if diag[ipvt[j]] != 0:
            for k in range(j, n):
                sdiag[k] = 0.0
            sdiag[j] = diag[ipvt[j]]
            qtbpj = 0.0
            for k in range(j, n):
                if sdiag[k] == 0:
                    continue
                rkk = r[k][k]
                if abs(rkk) < abs(sdiag[k]):
                    cotan = rkk / sdiag[k]
                    sin = 0.5 / math.sqrt(0.25 + 0.25 * (cotan * cotan))
                    cos = sin * cotan
                else:
                    tan = sdiag[k] / rkk
                    cos = 0.5 / math.sqrt(0.25 + 0.25 * (tan * tan))
                    sin = cos * tan
                r[k][k] = cos * rkk + sin * sdiag[k]
                wa[k], qtbpj = cos * wa[k] + sin * qtbpj, -sin * wa[k] + cos * qtbpj
                for i in range(k + 1, n):
                    rik = r[i][k]
                    r[i][k] = cos * rik + sin * sdiag[i]
                    sdiag[i] = -sin * rik + cos * sdiag[i]
        sdiag[j] = r[j][j]
        r[j][j] = x[j]
    nsing = next((j for j in range(n) if sdiag[j] == 0), n)
    wa[nsing:] = [0.0] * (n - nsing)
    for j in range(nsing - 1, -1, -1):
        col = [r[i][j] for i in range(j + 1, nsing)]
        wa[j] = (wa[j] - _dot(col, wa[j + 1:nsing])) / sdiag[j]
    out = [0.0] * n
    for j in range(n):
        out[ipvt[j]] = wa[j]
    return out


def _lmpar(r, ipvt, diag, qtb, delta, par):
    """MINPACK's lmpar: the Levenberg-Marquardt parameter for trust radius
    delta, and the step it gives (lists). Returns (par, step)."""
    n = len(r)
    sdiag = [0.0] * n
    # Gauss-Newton direction, or a least-squares one if R is singular
    nsing = next((j for j in range(n) if r[j][j] == 0), n)
    wa1 = qtb[:nsing] + [0.0] * (n - nsing)
    for j in range(nsing - 1, -1, -1):
        wa1[j] /= r[j][j]
        for i in range(j):
            wa1[i] -= r[i][j] * wa1[j]
    x = [0.0] * n
    for j in range(n):
        x[ipvt[j]] = wa1[j]
    wa2 = [d * v for d, v in zip(diag, x)]
    dxnorm = _enorm(wa2)
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, x
    parl = 0.0
    if nsing >= n:
        wa1 = [wa2[l] / dxnorm * diag[l] for l in ipvt]
        for j in range(n):
            wa1[j] = (wa1[j] - _dot([r[i][j] for i in range(j)], wa1)) / r[j][j]
        temp = _enorm(wa1)
        parl = ((fp / delta) / temp) / temp
    wa1 = [_dot([r[i][j] for i in range(j + 1)], qtb) / diag[ipvt[j]] for j in range(n)]
    gnorm = _enorm(wa1)
    paru = gnorm / delta
    if paru == 0:
        paru = _TINY / min(delta, 0.1)
    par = min(max(par, parl), paru)
    if par == 0:
        par = gnorm / dxnorm
    for it in range(1, 11):
        if par == 0:
            par = max(_TINY, 0.001 * paru)
        sp = math.sqrt(par)
        x = _qrsolv(r, ipvt, [sp * d for d in diag], qtb, sdiag)
        wa2 = [d * v for d, v in zip(diag, x)]
        dxnorm = _enorm(wa2)
        temp, fp = fp, dxnorm - delta
        if abs(fp) <= 0.1 * delta or (parl == 0 and fp <= temp < 0) or it == 10:
            break
        # Newton correction
        wa1 = [wa2[l] / dxnorm * diag[l] for l in ipvt]
        for j in range(n):
            wa1[j] /= sdiag[j]
            for i in range(j + 1, n):
                wa1[i] -= r[i][j] * wa1[j]
        temp = _enorm(wa1)
        parc = ((fp / delta) / temp) / temp
        if fp > 0:
            parl = max(parl, par)
        if fp < 0:
            paru = min(paru, par)
        par = max(parl, par + parc)
    return par, x


def least_squares(fun, x0, max_nfev):
    """Levenberg-Marquardt minimum of sum(fun(x)**2) from x0, as
    scipy.optimize.least_squares(fun, x0, method="lm", max_nfev=max_nfev,
    ftol=1e-15, xtol=1e-15, gtol=1e-15) computes it.

    max_nfev counts the residual evaluations outside the Jacobian, as
    MINPACK's maxfev does. Returns (x, fun(x)).
    """
    x = np.array(x0, dtype=float)
    fvec = np.asarray(fun(x), dtype=float)
    n, nfev = len(x), 1
    fnorm, par, first = _enorm(fvec), 0.0, True
    while True:
        fjac = _jacobian(fun, x, fvec)
        ipvt, rdiag, acnorm = _qrfac(fjac)
        if first:
            diag = [a if a != 0 else 1.0 for a in acnorm]
            xnorm = _enorm([d * v for d, v in zip(diag, x.tolist())])
            delta = 100.0 * xnorm or 100.0
        # Q^T fvec, first n entries
        wa4 = fvec.copy()
        for j in range(n):
            if fjac[j, j] != 0:
                temp = -_sum(fjac[j:, j] * wa4[j:]) / fjac[j, j]
                wa4[j:] += fjac[j:, j] * temp
            fjac[j, j] = rdiag[j]
        qtf = wa4[:n].tolist()
        r = fjac[:n].tolist()
        # norm of the scaled gradient
        gnorm = 0.0
        if fnorm != 0:
            for j in range(n):
                if acnorm[ipvt[j]] != 0:
                    s = _dot([r[i][j] for i in range(j + 1)], [q / fnorm for q in qtf])
                    gnorm = max(gnorm, abs(s / acnorm[ipvt[j]]))
        if gnorm <= _TOL:
            break
        diag = [max(d, a) for d, a in zip(diag, acnorm)]
        while True:
            par, step = _lmpar(r, ipvt, diag, qtf, delta, par)
            step = [-s for s in step]
            trial = x + np.array(step)
            pnorm = _enorm([d * s for d, s in zip(diag, step)])
            if first:
                delta = min(delta, pnorm)
            ftrial = np.asarray(fun(trial), dtype=float)
            nfev += 1
            fnorm1 = _enorm(ftrial)
            actred = -1.0
            if 0.1 * fnorm1 < fnorm:
                temp = fnorm1 / fnorm
                actred = 1.0 - temp * temp
            wa3 = [0.0] * n
            for j in range(n):
                temp = step[ipvt[j]]
                for i in range(j + 1):
                    wa3[i] += r[i][j] * temp
            temp1 = _enorm(wa3) / fnorm
            temp2 = (math.sqrt(par) * pnorm) / fnorm
            prered = temp1 * temp1 + temp2 * temp2 / 0.5
            dirder = -(temp1 * temp1 + temp2 * temp2)
            ratio = actred / prered if prered != 0 else 0.0
            if ratio <= 0.25:
                temp = 0.5 if actred >= 0 else 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * min(delta, pnorm / 0.1)
                par /= temp
            elif par == 0 or ratio >= 0.75:
                delta = pnorm / 0.5
                par *= 0.5
            if ratio >= 0.0001:
                x, fvec, fnorm, first = trial, ftrial, fnorm1, False
                xnorm = _enorm([d * v for d, v in zip(diag, x.tolist())])
            small = abs(actred) <= _TOL and prered <= _TOL and 0.5 * ratio <= 1
            if (small or delta <= _TOL * xnorm or nfev >= max_nfev
                    or (abs(actred) <= _EPS and prered <= _EPS and 0.5 * ratio <= 1)
                    or delta <= _EPS * xnorm or gnorm <= _EPS):
                return x, fvec
            if ratio >= 0.0001:
                break
    return x, fvec
