"""Coefficient rings (Z, Q and F_p) and the chains over them.

A differential sums its terms into one plain dict and becomes a Chain
once: the chain takes the dict over, normalizes it mod p and drops the
zero sums in place.  The matrices a chain's coefficients end up in, and
their reductions, are linalg's; the coefficient ring only enters when
homology is extracted.
"""

from __future__ import annotations


# ---------------------------------------------------------------------------
# Coefficient rings


class Ring:
    """Ground ring descriptor: Z, Q, or a prime field F_p."""

    __slots__ = ("kind", "p")

    def __init__(self, kind, p=None):
        if kind not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind == "Fp":
            if p is not None and p >= _PRIME_LIMIT:
                raise ValueError(f"F_p moduli must be below {_PRIME_LIMIT}")
            if p is None or not _is_prime(p):
                raise ValueError(f"F_p requires a prime modulus, got {p!r}")
        elif p is not None:
            raise ValueError("modulus only makes sense for prime fields")
        self.kind = kind
        self.p = p

    @property
    def is_field(self):
        return self.kind != "Z"

    def normalize(self, c):
        """Canonical representative of an integer coefficient."""
        return c % self.p if self.kind == "Fp" else c

    def __eq__(self, other):
        return isinstance(other, Ring) and (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"F{self.p}" if self.kind == "Fp" else self.kind


# Miller-Rabin on the primes up to 41 is exact below this bound (Sorenson
# and Webster, 2015); up to 37 it is not (318665857834031151167461).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin; exact for n < _PRIME_LIMIT."""
    if n < 2 or any(n % b == 0 for b in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    for b in _PRIME_BASES:
        x = pow(b, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


ZZ = Ring("Z")
QQ = Ring("Q")


def prime_field(p):
    return Ring("Fp", p)


def parse_ring(text):
    """Parse a ring spec: "Z", "Q", or "F<p>" with p prime in ASCII digits."""
    if text == "Z":
        return ZZ
    if text == "Q":
        return QQ
    if text.startswith("F") and text[1:].isascii() and text[1:].isdigit():
        return prime_field(int(text[1:]))
    raise ValueError(f"cannot parse ring {text!r} (expected Z, Q or F<p>)")


# ---------------------------------------------------------------------------
# Chains

def _nonzero(terms):
    # summed {key: coefficient} without its rare zero sums, for the kernels
    # that hand raw dicts to the builder; Chain drops them in place
    return terms if all(terms.values()) else {k: c for k, c in terms.items() if c}


class Chain:
    """Finite formal sum of generator keys with nonzero coefficients.

    Keys may be any totally ordered hashables; iteration is always sorted,
    so printed chains and derived matrices are reproducible.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=None):
        """A chain from {key: summed coefficient}, a dict the chain takes over
        and normalizes in place, or from (key, c) pairs whose keys may repeat;
        zero sums drop out."""
        self.ring = ring
        if not isinstance(terms, dict):
            summed = {}
            for key, c in terms or ():
                summed[key] = summed.get(key, 0) + c
            terms = summed
        if ring.p:
            for key, c in terms.items():
                terms[key] = c % ring.p
        if not all(terms.values()):  # zero sums are rare; this scan runs in C
            for key in [key for key, c in terms.items() if not c]:
                del terms[key]
        self.terms = terms

    def add(self, key, c):
        c = self.ring.normalize(c + self.terms.get(key, 0))
        if c:
            self.terms[key] = c
        else:
            self.terms.pop(key, None)
        return self

    def add_chain(self, other, scale=1):
        for key, c in other.terms.items():
            self.add(key, scale * c)
        return self

    def items(self):
        return sorted(self.terms.items())

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Chain)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    __hash__ = None  # chains are mutable accumulators

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key, c in self.items():
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            coef = "" if mag == 1 else f"{mag}*"
            bits.append(f"{sign} {coef}{key}")
        text = " ".join(bits)
        return text[2:] if text.startswith("+ ") else text
