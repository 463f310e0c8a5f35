"""Reference outputs for the benchmark, computed without wgmono's evaluators.

The character tables themselves come from the program under test, but a
table is only used after its canonical digest matches ``TABLE_SHA256``,
which pins every entry and the lex order for d <= 20.  Everything
derived from a table here is independent of ``genfun`` and ``scanner``:
hooks and contents are recomputed, and values at x = p/q are formed as
one integer dot product per class over the common denominator
L = lcm(D_lambda), D_lambda = H_lambda * prod(q - c*p).
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

# sha256 of canonical_table_text(table) for every degree the benchmark uses.
TABLE_SHA256 = {
    1: "ad0fadf63cc7cd779ce475e345bf4063565b63a3c2efef1eebc89790aaa6acba",
    2: "4cdbce2652f21ba1d7991b675d50002ce6a9636c8135063ce9bc7f988df837b2",
    3: "7f0b783ab54fe99fa9d94e0fb6d899cd2440f0fea3d315381a538cc2bc884207",
    4: "62dad8e00cc5cf5442cabd8316134fb6c5be09556bf49911de901adcdc5183f8",
    5: "32311fffc67b742ee9fb9cf002050280916db95e28b0fbeeb84fa7759f8733ac",
    6: "4b4fa81798f48887c276513d10c7a91fcdb62838717bf6fd7db3a3e7788a86ea",
    7: "a4a292daf6355e53bb363f29721c7cdb7d54cf5aa2a0b4dcd60872ce8a2c63ee",
    8: "fc33c273b510808f11fd50a9e8a67c231fd1a5a7dddaf8e7b0f2240e1a71c8ef",
    9: "5131d44c7c4ec56b4e18e391910b5c68992fa34009e58ea9e7fbea11d7da94d1",
    10: "9ebc34c509bbb4a8e95277440b78fd549d4e02dd3eaa3c38fb3046416f4286d2",
    11: "337486cc9a9f231cb00a02d902c69fa3a0a354929cdbc39535da9b6287103cc5",
    12: "e52f03fc221bfe85c562d90de5fb39f42c66eac344ca66bb85b758339edb7b46",
    13: "ad4a1e040bb024908da00bbf7f3f0d6fde3f2a6b7f167ef2a22f0203a40e668e",
    14: "c93958921a269d459a03e89bdc4052d656604ff25fb843e2f180bf3ea5207c1d",
    15: "5b8b4d8bc93143f128745631a295095ff1ec58a9d4b373c1ef5ad235855e4899",
    16: "ff4b06f1e07a9d17627bc4a940cbbff85df18f20bbb8b9ab7e02faf086072039",
    17: "2f2f6df0526f60ec61bd35f0ae61dfe3d030c6d818977b03682d61aeb38b234f",
    18: "3a620f3dae6389d87fbf724d6a397fa886e9bb33361e7588e979ada21fc581a3",
    19: "200dc566b444c8ef51b86140d9b0c41789dfb5f37a8135d5d117622fcb15229f",
    20: "fbda1aad0abd6add0c193763ade06ded3a9afef40246bdcc950efa141396f138",
}


def canonical_table_text(order, values) -> bytes:
    """Partition strings, then one line of integers per row."""
    lines = [partition_str(p) for p in order]
    lines.extend(" ".join(map(str, row)) for row in values)
    return ("\n".join(lines) + "\n").encode("ascii")


def table_digest(order, values) -> str:
    return hashlib.sha256(canonical_table_text(order, values)).hexdigest()


def partition_str(parts) -> str:
    """Exponent form of a nondecreasing part sequence: (1, 1, 2) -> '1^2,2'."""
    groups = []
    i = 0
    while i < len(parts):
        j = i
        while j < len(parts) and parts[j] == parts[i]:
            j += 1
        groups.append(f"{parts[i]}^{j - i}" if j - i > 1 else str(parts[i]))
        i = j
    return ",".join(groups)


def partitions(d: int) -> list[tuple[int, ...]]:
    """Partitions of d as nondecreasing tuples in dictionary order."""
    out = []

    def gen(remaining, low, prefix):
        if remaining == 0:
            out.append(prefix)
            return
        for p in range(low, remaining + 1):
            gen(remaining - p, p, prefix + (p,))

    gen(d, 1, ())
    return out


def hooks_and_contents(parts) -> tuple[int, list[int]]:
    """Hook-length product and the list of cell contents of a diagram."""
    rows = sorted(parts, reverse=True)
    cols = [sum(1 for r in rows if r > j) for j in range(rows[0])]
    product = 1
    contents = []
    for i, r in enumerate(rows):
        for j in range(r):
            product *= (r - j) + (cols[j] - i) - 1
            contents.append(j - i)
    return product, contents


def class_size(parts) -> int:
    denom = 1
    for p in set(parts):
        m = parts.count(p)
        denom *= p ** m * math.factorial(m)
    return math.factorial(sum(parts)) // denom


def character_column(alpha, shapes) -> list[int]:
    """chi^lambda(alpha) for each shape, by the Murnaghan-Nakayama rule.

    Shapes are beta-sets (first-column hook lengths); a rim hook of size r
    is a bead moved from b to a free b - r, signed by the beads it jumps.
    Parts of alpha are removed largest first, memoized on (beta-set, step).
    """
    parts = sorted(alpha, reverse=True)
    memo: dict = {}

    def normalize(beads):
        beads = sorted(beads)
        shift = 0
        while shift < len(beads) and beads[shift] == shift:
            shift += 1
        return tuple(b - shift for b in beads[shift:])

    def chi(beta, i):
        if i == len(parts):
            return 1
        key = (beta, i)
        if key in memo:
            return memo[key]
        r = parts[i]
        occupied = set(beta)
        total = 0
        for b in beta:
            if b >= r and b - r not in occupied:
                jumped = sum(1 for c in beta if b - r < c < b)
                rest = normalize([c for c in beta if c != b] + [b - r])
                total += (-1) ** jumped * chi(rest, i + 1)
        memo[key] = total
        return total

    out = []
    for lam in shapes:
        rows = sorted(lam, reverse=True)
        n = len(rows)
        out.append(chi(normalize([rows[i] + n - 1 - i for i in range(n)]), 0))
    return out


def fmt(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


class Reference:
    """Exact reference values for one degree, from a digest-checked table."""

    def __init__(self, table):
        d = table.degree
        digest = table_digest(table.order, table.values)
        if TABLE_SHA256.get(d) != digest:
            raise ValueError(f"character table d={d} has digest {digest}, "
                             f"expected {TABLE_SHA256.get(d)}")
        self.d = d
        self.order = [tuple(p) for p in table.order]
        self.names = [partition_str(p) for p in self.order]
        self.index = {p: k for k, p in enumerate(self.order)}
        self.columns = [list(col) for col in zip(*table.values)]
        shapes = [hooks_and_contents(p) for p in self.order]
        self.hooks = [h for h, _ in shapes]
        self.contents = [c for _, c in shapes]
        self.normalizer = Fraction(math.factorial(d) ** 2, d ** d)
        self._hr: dict[int, list[int]] = {}

    def _dot_setup(self, x: Fraction):
        p, q = x.numerator, x.denominator
        dens = []
        for h, cs in zip(self.hooks, self.contents):
            den = h
            for c in cs:
                den *= q - c * p
            dens.append(den)
        lcm = math.lcm(*dens)
        weights = [lcm // den for den in dens]
        return Fraction(q ** self.d, lcm), weights

    def value(self, alpha, x: Fraction) -> Fraction:
        scale, weights = self._dot_setup(x)
        col = self.columns[self.index[tuple(alpha)]]
        return scale * sum(chi * w for chi, w in zip(col, weights))

    def values(self, x: Fraction) -> list[Fraction]:
        scale, weights = self._dot_setup(x)
        return [scale * sum(chi * w for chi, w in zip(col, weights))
                for col in self.columns]

    def coeff(self, alpha, r: int) -> int:
        """[x^r] of the walk series: sum chi * h_r(contents) / H."""
        hr = self._hr.get(r)
        if hr is None:
            hr = []
            for cs in self.contents:
                acc = [1] + [0] * r
                for c in cs:
                    for j in range(1, r + 1):
                        acc[j] += c * acc[j - 1]
                hr.append(acc[r])
            self._hr[r] = hr
        col = self.columns[self.index[tuple(alpha)]]
        total = sum(Fraction(chi * h, H) for chi, h, H in zip(col, hr, self.hooks))
        if total.denominator != 1:
            raise ArithmeticError(f"non-integer coefficient at r={r}")
        return total.numerator

    def scan_doc(self, x: Fraction, interval=None) -> dict:
        """The scan report as the JSON document the scanner should emit."""
        vals = self.values(x)
        viol = [i for i in range(len(vals) - 1) if vals[i] < vals[i + 1]]
        ties = [i for i in range(len(vals) - 1) if vals[i] == vals[i + 1]]
        runs = []
        start = 0
        for v in viol + [len(vals) - 1]:
            runs.append({"start": self.names[start], "end": self.names[v],
                         "length": v - start + 1})
            start = v + 1
        doc = {
            "degree": self.d,
            "x": fmt(x),
            "entries": [{"partition": n, "value": fmt(v),
                         "normalized": fmt(v * self.normalizer)}
                        for n, v in zip(self.names, vals)],
            "violations": [self.names[i] for i in viol],
            "ties": [self.names[i] for i in ties],
            "runs": runs,
        }
        if interval is not None:
            lo, hi = interval
            doc["intervals"] = [{
                "low": self.names[lo], "high": self.names[hi],
                "cardinality": hi - lo,
                "violations_inside": [self.names[i] for i in viol if lo < i <= hi],
            }]
        return doc


def scan_csv_rows(doc: dict) -> list[list[str]]:
    return [["partition", "normalized"]] + [
        [e["partition"], e["normalized"]] for e in doc["entries"]]
