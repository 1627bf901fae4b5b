"""The special functions qbm1d needs, in numpy alone.

``erf`` is Cephes' ``ndtr.c`` algorithm, the one scipy.special uses, to
within the rounding of exp.  ``wofz`` is the Faddeeva function w(z) =
exp(-z^2) erfc(-iz) in the closed upper half-plane, by Weideman's N = 48
rational series (J. A. C. Weideman, SIAM J. Numer. Anal. 31, 1497 (1994)).
``dst1`` is scipy.fft's unnormalized type-I DST, an FFT of the odd extension.
No value depends on the array it is computed in.  A call costs some tens of
numpy operations whatever its size, so few calls of many points are cheapest.
"""

from __future__ import annotations

import numpy as np

# ndtr.c's coefficients, highest degree first: x T(x^2)/U(x^2) for |x| <= 1,
# 1 - exp(-x^2) P(|x|)/Q(|x|) for 1 < |x| < 8; U and Q have a unit leading one
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)


def _horner(num, den, a):
    """(num(a), den(a)) by Horner's rule in Cephes' order; den is monic."""
    p = a * num[0]
    p += num[1]
    q = a + den[0]
    for c in num[2:]:
        p *= a
        p += c
    for c in den[1:]:
        q *= a
        q += c
    return p, q


def erf(x):
    """The error function of real x, within 1 ulp of scipy.special.erf.

    Every element takes the first form, which is cheap, and those above 1
    then take the second.  Beyond |x| = 8 the second form is 1 - exp(-64)
    P/Q, which rounds to 1 as Cephes' third form does, so |x| is cut there.
    """
    x = np.asarray(x, dtype=float)
    b = np.minimum(np.abs(x), 8.0).ravel()
    p, q = _horner(_T, _U, b * b)
    out = b * p / q
    big = b > 1.0
    if big.any():
        bb = b[big]
        p, q = _horner(_P, _Q, bb)
        out[big] = 1.0 - np.exp(-(bb * bb)) * p / q
    return np.copysign(out.reshape(x.shape), x)


def _weideman(n):
    """(L, a): the scale and the n coefficients, ascending, of Weideman's series."""
    m = 2 * n
    L = np.sqrt(n / np.sqrt(2.0))
    t = L * np.tan(np.arange(-m + 1, m) * np.pi / (2 * m))
    f = np.concatenate([[0.0], np.exp(-t * t) * (L * L + t * t)])
    return L, np.real(np.fft.fft(np.fft.fftshift(f)))[1:n + 1] / (2 * m)


_L, _A = _weideman(48)
# p(Z) = sum_{i < 8} Z^i q_i(Z^8), q_i(Y) = sum_{j < 6} a_{8j+i} Y^j: row i of _ROWS
_ROWS = _A.reshape(6, 8).T.copy()


def wofz(z):
    """Faddeeva w(z) for Im z >= 0, to about 2e-15 relative.

    w = 2 p(Z) / (L - iz)^2 + 1 / (sqrt(pi) (L - iz)), Z = (L + iz)/(L - iz)
    in the closed unit disc, p Weideman's polynomial of degree 47.  The eight
    q_i of p are one real matrix product with the powers of Z^8, then one
    Horner pass in Z sums them: some 30 numpy operations per call.
    """
    z = np.asarray(z, dtype=complex)
    shape, iz = z.shape, 1j * z.ravel()
    den = _L - iz
    Z = (_L + iz) / den
    powers = np.empty((6, Z.size), dtype=complex)      # (Z^8)^j, j < 6
    powers[0] = 1.0
    np.multiply(Z, Z, out=powers[1])
    powers[1] *= powers[1]
    powers[1] *= powers[1]
    for j in range(2, 6):
        np.multiply(powers[j - 1], powers[1], out=powers[j])
    q = (_ROWS @ powers.view(float)).view(complex)     # real coefficients
    p = q[-1] * Z
    for qi in q[-2:0:-1]:
        p += qi
        p *= Z
    p += q[0]
    return ((2 * p / den + 1 / np.sqrt(np.pi)) / den).reshape(shape)


def dst1(x):
    """Type-I DST of a vector, y_k = 2 sum_j x_j sin(pi (j+1)(k+1)/(n+1)), from
    the FFT of its odd extension of length 2(n+1); dst1(dst1(x)) = 2(n+1) x."""
    ext = np.concatenate([[0.0], x, [0.0], -x[::-1]])
    return 1j * np.fft.fft(ext)[1:x.size + 1]
