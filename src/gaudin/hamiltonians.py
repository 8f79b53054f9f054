"""The N commuting Gaudin Hamiltonians on each weight subspace.

    H_i = sum_{j != i} Omega_ij / (z_i - z_j),
    Omega_ij = H^(i) H^(j) / 2 + E^(i) F^(j) + F^(i) E^(j) = Omega_ji,

where Omega_ij does not depend on z and preserves each V_m.  Each column of
Omega_ij has at most three entries: a diagonal and two hops, which move one
unit of spin deviation between sites i and j.  _pair_map reads them off the
sl2 index maps once per (weights, m), as read-only gather maps, and both
builders read it.

Each site i gets its own scale D_i = 2 lcm over j != i of numerator(z_i - z_j),
so every D_i / (z_i - z_j) is an even integer, and _integer_gathers, the one
exact builder, writes the integer matrices D_i H_i in the gather form of
_pair_map: in int64 when a proven bound keeps every partial row sum below
2^62, in Python ints otherwise; only the dtype differs.  Every exact matrix
here is an sl2.SparseOperator of that form: the family (_exact_family) that
the identity checks, the emitted matrices and independent_count read, and
build_hamiltonian, one site's pairs over the denominator D_i.

The identities [H_i, H_j] = 0, sum_i (D / D_i) D_i H_i = 0 (D = lcm of the
D_i) and the intertwinings X_i E = E H_i, X_i F = F H_i with the family X_i
on the adjacent level are homogeneous in each H_i, so they are decided on
the integer matrices: each is a group of products c A B of integer matrices,
in the sparse rows of SparseOperator, whose sum must vanish.  _vanishing
decides the groups multi-modularly (Dumas, Giorgi and Pernet, ACM TOMS 35,
2008).  A Python-int bound B_g on every entry of group g's sum comes first:
|(A B)[t, c]| is at most the largest row sum of |A| times that of |B|.  The
group's moduli (_moduli) are 2^64 and then the fewest primes below 2^31
(_prime) whose product with it, M_g, exceeds 2 B_g; a group with B_g < 2^63
needs no prime.  Modulo 2^64 every entry of the sum is formed in uint64,
where products and sums wrap: the residues of int64 entries are their own
bits.  Modulo a prime it is formed in int64 residues: a residue below 2^31
squared stays below 2^62, and each product is reduced before it is summed.
An entry e with |e| <= B_g < M_g / 2 that vanishes modulo every modulus is
a multiple of M_g, hence 0; one nonzero residue proves e != 0.  So each
decision is exact with no tolerance, and a fault changes the bound its own
group is checked against.  Each modulus adds its products by target entry
into one accumulator with np.add.at, and only the entries it touches are
zeroed and read.  The total H is the scalar sum(weights) - 2m on V_m, so it
needs no check.

For float or complex z, _gather_forms writes every H_i as 2N - 1 gathers
(the diagonal and two hops per j != i) with entries (k / 2) / (z_i - z_j),
given the differences z_i - z_j: the eigenbasis layer passes the correctly
rounded exact ones, the Bethe layer its float ones, and neither layer builds
a dense Hamiltonian.  hamiltonian_array scatters one H_i into a dense matrix
by sl2._scatter.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rational_linalg import rank
from .sl2 import (
    ModelSpec,
    SparseOperator,
    enumerate_weight_space,
    _exact_dtype,
    _generator,
    _lowering_map,
    _raising_gathers,
    _scatter,
    _weights_of,
)


@functools.lru_cache(maxsize=None)
def _pair_map(weights: tuple[int, ...], m: int):
    """Read-only gather maps (src, k) of every Omega_ij on V_m by site, cached; they do not depend on z.

    k[r, i] holds the integers k of the entries k / 2 of Omega_ij = Omega_ji,
    j = r + (r >= i) the r-th other site of i, with a < b the pair sorted:
    the diagonal H^(a) H^(b), then the hops E^(a) F^(b) and E^(b) F^(a) from
    columns src[2r + 1, i] and src[2r + 2, i].  src[0, i] is the identity.
    A hop E^(a) F^(b) takes row t to t - e_b by sl2._lowering_map, then
    raises site a by sl2._raising_gathers, with k twice that E coefficient.
    A hop that misses row t reads the sentinel dim V_m, with k = 0.
    """
    space = enumerate_weight_space(weights, m)
    n, dim = len(weights), space.dim
    up, coef = _raising_gathers(weights, m)  # from V_{m-1}, with a column appended for its sentinel
    up = np.concatenate([up, np.full((n, 1), dim)], axis=1)
    twice_e = np.concatenate([2 * coef[..., 0], np.zeros((n, 1), dtype=np.int64)], axis=1)
    below = _lowering_map(weights, m - 1).T  # below[b, t]: the V_{m-1} index of t - e_b
    hop_src, hop_k = up[:, below], twice_e[:, below]  # [a, b, t]: the hop E^(a) F^(b) at row t
    h = np.array(weights, dtype=np.int64)[:, None] - 2 * np.array(space.states, dtype=np.int64).T  # H^(s) at row t
    i, r = np.arange(n), np.arange(n - 1)[:, None]
    j = r + (r >= i)  # the r-th other site of i
    a, b = np.minimum(i, j), np.maximum(i, j)
    k = np.stack([h[i] * h[j], hop_k[a, b], hop_k[b, a]], axis=2)
    hops = np.stack([hop_src[a, b], hop_src[b, a]], axis=1).reshape(2 * n - 2, n, dim)
    src = np.concatenate([np.broadcast_to(np.arange(dim), (1, n, dim)), hops])
    src.flags.writeable = k.flags.writeable = False
    return src, k


_BATCH = 1 << 13  # the most products of single entries one batch of _vanishing holds, unless one row holds more
_SPAN = 1 << 20  # the most target entries (row, column) one batch of _vanishing spans, unless one row spans more


@functools.lru_cache(maxsize=None)
def _site_scales(z: tuple) -> tuple:
    """D_i = 2 lcm over j != i of numerator(z_i - z_j), cached: each D_i / (z_i - z_j) is an even integer."""
    return tuple(2 * math.lcm(*((zi - zj).numerator for zj in z if zj != zi)) for zi in z)


@functools.lru_cache(maxsize=None)
def _pair_scales(z: tuple) -> np.ndarray:
    """Read-only h[r, i] = D_i / (2 (z_i - z_j)) for j the r-th other site of i, Python ints, cached."""
    n = len(z)
    h = np.array([[d // 2 * (z[i] - z[j]).denominator // (z[i] - z[j]).numerator for j in range(n) if j != i]
                  for i, d in enumerate(_site_scales(z))], dtype=object).T
    h.flags.writeable = False
    return h


def _integer_gathers(spec: ModelSpec, m: int, sites=None):
    """Gather form (src, coef) of the integer matrices D_i H_i on V_m, D_i = _site_scales(spec.z)[i].

    sites selects the H_i (default all) and only their pairs are read: row t
    of the s-th one holds coef[h, s, t] in column src[h, s, t], with src from
    _pair_map (the sentinel dim V_m marks an absent hop).  An Omega_ij entry
    k / 2 becomes k h_ij, with h_ij = _pair_scales(spec.z), and the diagonal
    sums these over j != i.  No partial sum of a row of any H_i exceeds
    max |h_ij| times the largest sum of |k| over a row, so coef is int64 when
    that bound is below 2^62 and Python ints (dtype object) otherwise.
    """
    src, k = _pair_map(spec.weights, m)
    h = _pair_scales(spec.z)
    widest = int(np.abs(k).sum(axis=(0, 2)).max(initial=0))
    dtype = _exact_dtype(max(map(abs, h.flat)) * widest)
    sites = slice(None) if sites is None else np.asarray(sites)
    h = h[:, sites, None].astype(dtype)
    coef = np.empty(src[:, sites].shape, dtype=dtype)
    coef[0] = np.sum(k[:, sites, 0] * h, axis=0)
    coef[1::2], coef[2::2] = k[:, sites, 1] * h, k[:, sites, 2] * h
    return src[:, sites], coef


def build_hamiltonian(spec: ModelSpec, i: int, m: int) -> SparseOperator:
    """Exact matrix of H_i on V_m (site index i is 0-based): D_i H_i over the denominator D_i, Fraction entries."""
    src, coef = _integer_gathers(spec, m, [i])
    return SparseOperator(src, coef, src.shape[2], _site_scales(spec.z)[i])


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5 and 7: exact for odd n from 11 up to 3,215,031,750 (Jaeschke, 1993)."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x not in (1, n - 1) and all(pow(x, 2**r, n) != n - 1 for r in range(1, s)):
            return False
    return True


@functools.lru_cache(maxsize=None)
def _prime(k: int) -> int:
    """The k-th prime below 2^31, counting down from 2^31 - 1 (k = 0)."""
    n = _prime(k - 1) - 2 if k else 2**31 - 1
    while not _is_prime(n):
        n -= 2
    return n


def _moduli(bound: int) -> list:
    """2^64, then the fewest of _prime(0), _prime(1), ... whose product with 2^64 exceeds 2 bound."""
    moduli, product = [2**64], 2**64
    while product <= 2 * bound:
        moduli.append(_prime(len(moduli) - 1))
        product *= moduli[-1]
    return moduli


def _expand(starts: np.ndarray, counts: np.ndarray):
    """(owner, index): counts[k] entries with owner k and indices starts[k], starts[k] + 1, ..., for each k."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) + (starts - np.cumsum(counts) + counts)[owner]


def _reduced(x: np.ndarray, prime: int) -> np.ndarray:
    """x modulo prime in place, for int64 x >= 0; x itself for prime = 2^64, where uint64 arithmetic wraps.

    Written as x - (x // prime) prime: NumPy divides an int64 array by one
    number several times faster than it takes remainders.
    """
    if prime == 2**64:
        return x
    quotient = x // prime
    quotient *= prime
    x -= quotient
    return x


def _bounds(items) -> list:
    """For each group of _vanishing's items, a Python-int bound on every entry of its sum.

    |(A B)[t, c]| <= sum_s |A[t, s]| |B[s, c]| <= rowsums(A) rowsums(B), and
    the bounds of a group's items add up, each times |c|.
    """
    bounds = [0] * (max(g for *_, g in items) + 1)
    for c, x, a, y, b, g in items:
        bounds[g] += abs(c) * x.rowsums[a] * y.rowsums[b]
    return bounds


def _vanishing(items) -> np.ndarray:
    """One bool per group: whether the sum of the group's items is the zero matrix, decided exactly.

    An item (c, A, a, B, b, group) is c A_a B_b, with A and B integer
    sl2.SparseOperators and c a Python int; the items of a group map between
    the same spaces.  Each group is decided modulo the _moduli of its entry
    of _bounds: 2^64, on the uint64 SparseOperator.wrapped, then its primes,
    on int64 residues below 2^31.  The groups are ranked by their prime
    counts, most first, so that each modulus serves a prefix of the ranks,
    and an operand is reduced modulo the primes of the first rank it meets.
    The items are expanded, row by row and in rank order, into their
    products of single entries, so a modulus serves a prefix of them too.
    A batch is a run of consecutive (rank, row) pairs whose products,
    bounded by the entries of each row of A_a times the widest row of B_b,
    number at most _BATCH, and whose target entries span at most _SPAN (more
    only when one pair does).  Each modulus zeroes one accumulator at the
    batch-local keys (pair - p0) height + column of its products' target
    entries, adds the products there by np.add.at and reads the sums back:
    the cost is linear in the products.  While no target entry gathers 2^32
    products, a sum of prime residues stays below 2^63.  No float is used.
    """
    bounds = _bounds(items)
    counts = [len(_moduli(bound)) - 1 for bound in bounds]  # the primes of each group
    # rank r is the group order[r]: the groups by their prime counts, most first
    order = sorted(range(len(counts)), key=counts.__getitem__, reverse=True)
    rank, need = np.argsort(order).tolist(), [counts[g] for g in order]
    moduli = _moduli(max(bounds))
    # one pool of the operands' rows: each operand's first row and first entry in it, and the primes of the
    # first rank it comes in, the most it meets; per item: its rank, the pool rows of A_a and of B_b, the
    # rows of A, the widest row of B_b and c
    first, operands, rows, entries = {}, [], 0, 0
    table, factors, height = [], [], 1
    for c, x, a, y, b, g in sorted(items, key=lambda item: rank[item[5]]):
        g = rank[g]
        for op in (x, y):
            if op not in first:
                first[op] = rows
                operands.append((op, entries, need[g]))
                rows, entries = rows + op.start.size - 1, entries + op.cols.size
        table.append((g, first[x] + a * x.rows, first[y] + b * y.rows, x.rows, y.widths[b]))
        factors.append(c)
        height = max(height, y.dim)
    start = np.concatenate([op.start[:-1] + e for op, e, _ in operands] + [[entries]])
    cols = np.concatenate([op.cols for op, *_ in operands])
    # residues[q]: the entries modulo moduli[q] of the operands that need it, a prefix of the pool (the
    # operands come in rank order, most primes first); scale[q]: each c modulo moduli[q]
    primed = [op.residues(moduli[1 : n + 1]) for op, _, n in operands if n]
    residues = [np.concatenate([op.wrapped for op, *_ in operands])]
    residues += [np.concatenate([r[q] for r in primed if len(r) > q]) for q in range(len(moduli) - 1)]
    scale = [np.array([c % q for c in factors], dtype=np.uint64 if q == 2**64 else np.int64) for q in moduli]
    group, a_row, b_row, n_rows, b_width = np.array(table).T
    # the target rows of all ranks as one sequence of pairs (rank, row), rank r's from offset[r] on;
    # load[p] bounds the products of the pairs before p: row t of A_a adds its entries times the widest
    # row of B_b to pair offset[rank] + t
    offset = np.zeros(len(order) + 1, dtype=np.int64)
    offset[group + 1] = n_rows  # the items of a rank share its rows
    offset = np.cumsum(offset)
    item, rows = _expand(a_row, n_rows)
    load = np.zeros(offset[-1] + 1, dtype=np.int64)
    np.add.at(load, offset[group[item]] + rows - a_row[item] + 1, (start[rows + 1] - start[rows]) * b_width[item])
    load = np.cumsum(load)
    served = [sum(n >= q for n in need) for q in range(len(moduli))]  # moduli[q] serves the ranks below served[q]
    acc = np.empty(0, dtype=np.int64)
    ok = np.ones(len(bounds), dtype=bool)
    p0 = 0
    while p0 < offset[-1]:
        # a batch: the most pairs from p0 on that load bounds by _BATCH products and that span at most _SPAN
        # target entries, at least one, and the rows of each item of their ranks that it holds
        p1 = int(np.searchsorted(load, load[p0] + _BATCH, side="right")) - 1
        p1 = max(min(p1, p0 + _SPAN // height), p0 + 1)
        if acc.size < (p1 - p0) * height:  # one accumulator: int64 for the primes, viewed as uint64 for 2^64
            acc = np.empty((p1 - p0) * height, dtype=np.int64)
        lo, hi = np.searchsorted(group, np.searchsorted(offset, [p0, p1], side="right") - [1, 0])
        base = offset[group[lo:hi]]
        low, high = np.maximum(p0 - base, 0), np.minimum(p1 - base, n_rows[lo:hi])
        item, rows = _expand(a_row[lo:hi] + low, np.maximum(high - low, 0))
        item += lo
        head = (offset[group[item]] + rows - a_row[item] - p0) * height  # the key of column 0
        unit, ea = _expand(start[rows], start[rows + 1] - start[rows])
        batch = item[unit]
        b_rows = b_row[batch] + cols[ea]
        owner, eb = _expand(start[b_rows], start[b_rows + 1] - start[b_rows])
        key = head[unit][owner] + cols[eb]
        most = need[np.searchsorted(offset, p0, side="right") - 1] + 1  # the moduli of the batch's first rank
        for q, modulus in enumerate(moduli[:most]):
            cut = np.searchsorted(group[batch], served[q])  # the units of those ranks come first
            stop = np.searchsorted(owner, cut)
            product = _reduced(residues[q][ea[:cut]] * scale[q][batch[:cut]], modulus)[owner[:stop]]
            product *= residues[q][eb[:stop]]
            at, total = key[:stop], acc if q else acc.view(np.uint64)
            total[at] = 0
            np.add.at(total, at, _reduced(product, modulus))
            ok[group[batch[owner[:stop][_reduced(total[at], modulus) != 0]]]] = False
        p0 = p1
    return ok[rank]


def _gather_forms(weights, diffs: np.ndarray, m: int):
    """(src, coef) of the family: H_i psi = sl2._gather_sum(sl2._pad(psi), src, coef)[i], src from _pair_map.

    diffs[i, j] = z_i - z_j, float or complex, sets the dtype of coef, which
    has a trailing axis of length 1.  The diagonal of H_i is summed over
    j != i in ascending order; every k / 2 becomes (k / 2) / diffs[i, j].
    """
    src, k = _pair_map(weights, m)
    n, dim = src.shape[1:]
    r = np.arange(n - 1)[:, None]
    terms = k / 2 / diffs[np.arange(n), r + (r >= np.arange(n))][:, :, None, None]
    diag = np.zeros((n, dim), dtype=diffs.dtype)
    for row in terms[:, :, 0]:
        diag = diag + row
    hops = terms[:, :, 1:].transpose(0, 2, 1, 3).reshape(-1, n, dim)
    return src, np.concatenate([diag[None], hops])[..., None]


def hamiltonian_array(weights, z, i: int, m: int) -> np.ndarray:
    """Dense complex matrix of H_i on V_m for arbitrary complex site points z.

    The entries of _gather_forms are added into a zero matrix: off the
    diagonal each position comes from one hop of one pair, so every entry,
    the sign of a zero part included, is the one a sum over the pairs in
    ascending order gives.
    """
    z = np.asarray(z, dtype=complex)
    src, coef = _gather_forms(_weights_of(weights), z[:, None] - z, m)
    return _scatter(src[:, i], coef[:, i], src.shape[2], complex)


def vacuum_eigenvalue(spec: ModelSpec, i: int) -> Fraction:
    """Exact eigenvalue of H_i on the vacuum vector."""
    return _vacuum_eigenvalue(spec.weights, spec.z, i)


def _vacuum_eigenvalue(weights, z, i: int):
    """sum_{j != i} lam_i lam_j / (2 (z_i - z_j)), in the number type of z (Fraction or complex)."""
    return sum(
        weights[i] * weights[j] / (2 * (z[i] - z[j])) for j in range(len(weights)) if j != i
    )


@dataclass
class VerifyReport:
    commuting: bool
    sum_zero: bool
    symmetry_commute: bool

    @property
    def all_ok(self) -> bool:
        return self.commuting and self.sum_zero and self.symmetry_commute


@functools.lru_cache(maxsize=None)
def _identity_rows(dim: int) -> SparseOperator:
    """The identity on a space of dimension dim as one operator in sparse rows, cached."""
    return SparseOperator(np.arange(dim)[None, None], np.ones((1, 1, dim), dtype=np.int64), dim)


def _level_items(spec: ModelSpec, m: int, below, here, above, first: int = 0):
    """The _vanishing items of verify_family's identities on V_m, in the groups first, first + 1, ...

    below, here and above are the integer families D_i H_i at m-1, m and m+1
    (_exact_family); below is None at m = 0
    and above is None at the top level, where E (resp. F) maps to the zero
    space.  Returns the items and the group slices of commuting, sum_zero and
    symmetry_commute.
    """
    n, scales = spec.n_sites, _site_scales(spec.z)
    pairs = list(itertools.combinations(range(n), 2))
    items = [(1, here, i, here, j, first + k) for k, (i, j) in enumerate(pairs)]
    items += [(-1, here, j, here, i, first + k) for k, (i, j) in enumerate(pairs)]
    # sum_i (D / D_i) D_i H_i = 0, D = lcm of the D_i
    whole, total = math.lcm(*scales), first + len(pairs)
    items += [(whole // d, here, i, _identity_rows(here.rows), 0, total) for i, d in enumerate(scales)]
    # X_i g == g H_i for the total generator g, with X_i = below_i (E), above_i (F): one group per site
    site = total + 1
    for family, gen in ((below, "E"), (above, "F")):
        if family is not None:
            g = _generator(gen, spec.weights, m)
            items += [(1, family, i, g, 0, site + i) for i in range(n)]
            items += [(-1, g, 0, here, i, site + i) for i in range(n)]
            site += n
    return items, (slice(first, total), slice(total, total + 1), slice(total + 1, site))


def _report(ok: np.ndarray, groups) -> VerifyReport:
    return VerifyReport(*(bool(ok[g].all()) for g in groups))


def _level_report(spec: ModelSpec, m: int, below, here, above) -> VerifyReport:
    """verify_family's checks on V_m, given the integer families at m-1, m and m+1 (see _level_items)."""
    items, groups = _level_items(spec, m, below, here, above)
    return _report(_vanishing(items), groups)


def _verified_levels(spec: ModelSpec):
    """Yield (m, the family D_i H_i on V_m (_exact_family), verify_family's report) for m = 0..sum(weights).

    A sliding window builds each level's family once.  Consecutive levels
    share one _vanishing call until their families hold 4 _BATCH entries, so
    that small levels share its fixed cost; the families of one call stay alive
    until it is made.
    """
    top = spec.total_weight
    pending, items, entries, first = [], [], 0, 0
    below, here = None, _exact_family(spec, 0)
    for m in range(top + 1):
        above = _exact_family(spec, m + 1) if m < top else None
        level, groups = _level_items(spec, m, below, here, above, first)
        pending.append((m, here, groups))
        items, entries, first = items + level, entries + here.cols.size, groups[-1].stop
        if entries > 4 * _BATCH or m == top:
            ok = _vanishing(items)
            for level_m, family, groups in pending:
                yield level_m, family, _report(ok, groups)
            pending, items, entries, first = [], [], 0, 0
        below, here = here, above


def _exact_family(spec: ModelSpec, m: int) -> SparseOperator:
    """The integer matrices D_i H_i on V_m, X_i of one SparseOperator of the _integer_gathers form."""
    src, coef = _integer_gathers(spec, m)
    return SparseOperator(src, coef, src.shape[2])


def verify_family(spec: ModelSpec, m: int) -> VerifyReport:
    """Exact checks of the Hamiltonian family on V_m.  Never raises on failure.

    commuting:        [H_i, H_j] = 0 for all pairs.
    sum_zero:         sum_i H_i = 0.
    symmetry_commute: H_i intertwines with E (V_m -> V_{m-1}) and F
                      (V_m -> V_{m+1}), using the Hamiltonians built on each
                      relevant degree.  The total H is the scalar
                      sum(weights) - 2m on V_m, so it is not checked.

    Every identity is decided on the integer matrices D_i H_i by residues
    (see the module docstring).
    """
    below = _exact_family(spec, m - 1) if m >= 1 else None
    above = _exact_family(spec, m + 1) if m < spec.total_weight else None
    return _level_report(spec, m, below, _exact_family(spec, m), above)


def independent_count(spec: ModelSpec, m: int) -> int:
    """Rational rank of the vectorized Hamiltonians on V_m (N-1 for generic specs).

    The rank of the integer matrices D_i H_i is the same.
    """
    family = _exact_family(spec, m)
    return rank([family.to_array(object, i).ravel().tolist() for i in range(spec.n_sites)])
