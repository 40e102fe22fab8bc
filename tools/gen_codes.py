"""Construct the packaged generator-matrix files from BCH generator polynomials.

Builds narrow-sense binary BCH codes over GF(2^m): the generator polynomial
is the LCM of the minimal polynomials of alpha^1 .. alpha^{2t}, and the
systematic n x k generator matrix places information bits on the high-degree
coefficients.  Output format (consumed by ttinfer.chancode.load_code):
first line "n k d_min", then n rows of k bits.  Each file written is read
back with load_code, which enumerates the minimum distance of codes with
k <= 20 and raises when it differs from the stated one.

Run from the repository root with ttinfer importable (installed, or with
PYTHONPATH=src):  python tools/gen_codes.py
"""

from __future__ import annotations

import pathlib

import numpy as np

from ttinfer.chancode import load_code

OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "ttinfer" / "data" / "codes"

PRIMITIVE_POLY = {3: 0b1011, 4: 0b10011, 5: 0b100101, 6: 0b1000011}

#       name            m  t  expected (n, k, d_min)
CODES = [
    ("hamming_7_4", 3, 1, (7, 4, 3)),
    ("bch_15_7", 4, 2, (15, 7, 5)),
    ("bch_31_16", 5, 3, (31, 16, 7)),
    ("bch_63_30", 6, 6, (63, 30, 13)),
]


def poly_mul(a: int, b: int) -> int:
    res = 0
    while b:
        if b & 1:
            res ^= a
        b >>= 1
        a <<= 1
    return res


def poly_mod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    while a and a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


class GF2m:
    """GF(2^m) with a primitive polynomial; alpha = x is primitive."""

    def __init__(self, m: int):
        self.m = m
        self.size = 1 << m
        self.poly = PRIMITIVE_POLY[m]

    def mul(self, a: int, b: int) -> int:
        return poly_mod(poly_mul(a, b), self.poly)

    def alpha_pow(self, e: int) -> int:
        e %= self.size - 1
        out = 1
        base = 2
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out


def minimal_polynomial(field: GF2m, exponent: int) -> int:
    """Minimal polynomial over GF(2) of alpha^exponent, via its cyclotomic
    coset; returned as a bit-mask polynomial."""
    n = field.size - 1
    coset = set()
    e = exponent % n
    while e not in coset:
        coset.add(e)
        e = (e * 2) % n
    # product of (x - alpha^c) with coefficients in GF(2^m)
    coeffs = [1]  # highest degree first
    for c in sorted(coset):
        root = field.alpha_pow(c)
        nxt = [0] * (len(coeffs) + 1)
        for i, coeff in enumerate(coeffs):
            nxt[i] ^= coeff  # times x
            nxt[i + 1] ^= field.mul(coeff, root)
        coeffs = nxt
    if any(c not in (0, 1) for c in coeffs):
        raise AssertionError("minimal polynomial must have GF(2) coefficients")
    mask = 0
    degree = len(coeffs) - 1
    for i, coeff in enumerate(coeffs):
        if coeff:
            mask |= 1 << (degree - i)
    return mask


def bch_generator_poly(field: GF2m, t: int) -> int:
    g = 1
    seen = set()
    for e in range(1, 2 * t + 1):
        mp = minimal_polynomial(field, e)
        if mp not in seen:
            seen.add(mp)
            g = poly_mul(g, mp)
    return g


def systematic_generator_matrix(n: int, g: int) -> np.ndarray:
    """n x k matrix with information on coefficients x^{n-k}..x^{n-1} and
    parity from the remainder mod g."""
    deg = g.bit_length() - 1
    k = n - deg
    cols = []
    for j in range(k):
        word = 1 << (n - k + j)
        cw = word ^ poly_mod(word, g)
        cols.append([(cw >> i) & 1 for i in range(n)])
    return np.array(cols, dtype=np.int64).T


def main() -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name, m, t, (n, k, d_min) in CODES:
        field = GF2m(m)
        assert field.size - 1 == n
        g = bch_generator_poly(field, t)
        gmat = systematic_generator_matrix(n, g)
        assert gmat.shape == (n, k), f"{name}: got k={gmat.shape[1]}, expected {k}"
        # g must divide x^n - 1
        assert poly_mod((1 << n) ^ 1, g) == 0, f"{name}: generator does not divide x^n+1"
        path = OUT_DIR / f"{name}.txt"
        with open(path, "w") as fh:
            fh.write(f"{n} {k} {d_min}\n")
            for row in gmat:
                fh.write(" ".join(str(b) for b in row) + "\n")
        verified = load_code(path).d_min_verified
        status = "verified by enumeration" if verified else "designed distance (not enumerated)"
        print(f"{name}: n={n} k={k} d_min={d_min} ({status}) -> {path}")


if __name__ == "__main__":
    main()
