"""Integer polynomials truncated at a fixed degree cap.

Used for Poincare and Chern polynomial arithmetic, where everything lives in
Z[t]/(t^(cap+1)). Coefficients are stored low degree first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class TruncPoly:
    coeffs: tuple[int, ...]  # coeffs[i] is the t^i coefficient; len == cap+1

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("empty coefficient tuple")
        for c in self.coeffs:
            if not isinstance(c, int):
                raise TypeError("TruncPoly coefficients must be int")

    @property
    def cap(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[int], cap: int) -> "TruncPoly":
        cs = list(coeffs)[: cap + 1]
        cs += [0] * (cap + 1 - len(cs))
        return cls(tuple(int(c) for c in cs))

    @classmethod
    def one(cls, cap: int) -> "TruncPoly":
        return cls.from_coeffs([1], cap)

    @classmethod
    def one_plus_t(cls, cap: int) -> "TruncPoly":
        return cls.from_coeffs([1, 1], cap)

    @classmethod
    def geometric(cls, cap: int) -> "TruncPoly":
        """1 + t + ... + t^cap."""
        return cls(tuple(1 for _ in range(cap + 1)))

    def _check(self, other: "TruncPoly"):
        if self.cap != other.cap:
            raise ValueError(f"cap mismatch: {self.cap} vs {other.cap}")

    def __add__(self, other: "TruncPoly") -> "TruncPoly":
        self._check(other)
        return TruncPoly(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncPoly") -> "TruncPoly":
        self._check(other)
        return TruncPoly(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "TruncPoly":
        return TruncPoly(tuple(-a for a in self.coeffs))

    def __mul__(self, other: "TruncPoly") -> "TruncPoly":
        self._check(other)
        cap = self.cap
        out = [0] * (cap + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > cap:
                    break
                out[i + j] += a * b
        return TruncPoly(tuple(out))

    def scale(self, k: int) -> "TruncPoly":
        return TruncPoly(tuple(k * a for a in self.coeffs))

    def pow(self, k: int) -> "TruncPoly":
        if k < 0:
            raise ValueError("negative power")
        result = TruncPoly.one(self.cap)
        for _ in range(k):
            result = result * self
        return result

    def divide(self, other: "TruncPoly") -> "TruncPoly":
        """Truncated division; the divisor's constant term must be a unit in Z."""
        self._check(other)
        if other.coeffs[0] not in (1, -1):
            raise ValueError("division requires constant term +1 or -1")
        cap = self.cap
        inv0 = other.coeffs[0]  # equals its own inverse
        q = [0] * (cap + 1)
        for k in range(cap + 1):
            acc = self.coeffs[k]
            for j in range(k):
                acc -= q[j] * other.coeffs[k - j]
            q[k] = acc * inv0
        return TruncPoly(tuple(q))

    def evaluate(self, x) -> Fraction:
        """Plain polynomial evaluation of the truncated representative."""
        xq = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * xq + c
        return acc

    def with_cap(self, cap: int) -> "TruncPoly":
        return TruncPoly.from_coeffs(self.coeffs, cap)

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}t" if c != 1 else "t")
            else:
                parts.append(f"{c}t^{i}" if c != 1 else f"t^{i}")
        return " + ".join(parts) if parts else "0"

