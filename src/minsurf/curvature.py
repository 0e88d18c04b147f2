"""Generic curvature engine: Christoffel symbols, Ricci tensor and scalar
curvature of a metric known together with its first and second derivatives
along the first two coordinates (all remaining directions are flat by
construction), plus an independent finite-difference Ricci oracle.

A metric with derivatives is (comp, d1, d2), of shapes (..., dim, dim),
(..., 2, dim, dim) and (..., 2, 2, dim, dim), given either as arrays or as
``BlockDiagonal`` objects that store only the distinct diagonal blocks.
``assembly.assemble_arrays`` returns the block form: the block metric
e^{2 Phi} g + eps_1 g + ... is two 2 x 2 parts, the x-block and g, laid out
with the signs.  ``christoffel_arrays`` and ``ricci_arrays`` read either
form; a dense array is one block.  The engine inverts each part with one
batched ``np.linalg.inv`` (inv(eps g) = eps inv(g), and a 2 x 2 inverse is
bit for bit the dense inverse's block), and the singularity rule and the
signature read one set of ``eigvalsh`` eigenvalues per part, which a
BlockDiagonal keeps once computed; the rule holds each part to its own
eigenvalue ratio.  No package caller flattens an assembled metric, so one
rule gives every verdict.

R is block diagonal like the metric, so ricci_arrays returns it as a
BlockDiagonal, one part per diagonal block of comp laid out ((0, 1),
(1, 1), ...), +0 where an on-block entry is not structural: 4 (n + 1) of
an assembled metric's dim^2 entries.  ``dense()`` rebuilds the dense R bit
for bit for the ``curvature`` command, the oracle and the tests.  Gamma
mixes blocks, so christoffel_arrays stays dense.

``central_differences`` is the one 9-point stencil of the oracle and the
solver, ``engine_arrays`` the one (comp, d1, d2) layout of a metric's
partials, and ``BlockDiagonal.eigenvalues`` the one singularity rule.

Index conventions: R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
+ Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb}, Ricci contracted on
the first and third slots.  The round sphere then has positive scalar
curvature (2/a^2), which the test suite pins.

Only x^1 and x^2 carry derivatives, so each derivative index, of d g,
d^2 g, d g^{-1}, d S and d Gamma, runs over those two live directions:
d_a Gamma^a_{db} sums over a < 2 and -d_d Gamma^a_{ab} fills only the
columns d < 2.

The engine sums structural non-zeros only.  The block metrics
e^{2 Phi} g + eps_1 g + ... are mostly exact zeros (at dim 8, 128 of the
8192 products of d g^{-1} per point are not), so each contraction runs
over term tables instead of dense arrays.  The pattern rule: an entry of
g^{-1}, d g or d^2 g that is off the diagonal blocks, or zero at every
point of the batch, counts as zero, and an intermediate (S, Gamma,
d g^{-1}, d S, d Gamma, each term of R) is structurally zero where each
of its products has a structurally zero factor.  A table joins its
factors' lists of structural non-zeros on their shared indices, so its
cost grows with those lists, not with dim^4; the tables are cached per
pattern.  A tensor's values are a (rows + 1, points) array over its
structural non-zeros plus a +0 row, read straight from the parts, each
entry times its block's sign.

The summation-order contract: each contraction keeps the subscripts of
the dense einsum engine it replaces, and its kept products, factors
multiplied left to right, are added to a +0 accumulator in the order that
einsum adds them (Gamma sums over d; d g^{-1} = (g^{-1} d g) g^{-1} sums b
outer, c inner; Gamma^i_{ie} Gamma^e_{db} sums i outer, e inner;
Gamma^i_{de} Gamma^e_{ib} sums e outer, i inner).  The scalar
g^{bd} R_{bd} is nested: each row b sums g^{bd} R_{bd} over d from +0,
then the rows are added to +0 in increasing b.  A skipped product is +-0,
and a sum that starts at +0 is never -0, so x + (+-0) = x and every bit
of Gamma, R, the scalar and denom, signed zeros included, is the dense
engine's.  tests/test_curvature.py holds the dense engine as padded_ricci,
checks the bits against it, and shows that a changed order, of R or of
the scalar, fails that check.

The finite-input requirement: a skipped product is only zero when its
other factors are finite (0 * inf is nan), so d g and d^2 g must be
finite; christoffel_arrays and ricci_arrays raise SingularMetric when
they are not.  ricci_arrays works through a batch in blocks of
block_points(dim) = max(128, 2048 // dim) points, so its temporaries do
not grow with the batch.
"""

from __future__ import annotations

import functools
import math

import numpy as np


class SingularMetric(ValueError):
    """Metric is not invertible (or numerically indistinguishable from it)."""


#: smallest |eigenvalue| / largest of each regular diagonal block.  Past a
#: condition number of 1e10, a block's inverse may carry a relative error of
#: 1e10 * 2.2e-16 = 2.2e-6, more than the 1e-7 Ricci tolerance can resolve.
#: Each block is inverted on its own, so the spread of e^{2 Phi} against g
#: across blocks does not enter; the acceptance sweep's worst block ratio,
#: 1.5e-4 (bi_wave), keeps a factor of 1.5e6 above it
SINGULAR_RCOND = 1e-10

def block_points(dim):
    """Points per block of the batched Ricci computation: about 2048 / dim, so
    the value arrays (about 20 dim rows) keep their dim-8 size, but at least
    128, since ``_sum`` makes about dim^2 numpy calls per block at large dim."""
    return max(128, 2048 // dim)


class BlockDiagonal:
    """A batch of block-diagonal matrices, or of their derivatives, stored
    as their distinct diagonal blocks.

    ``parts`` are arrays (..., k, k) with one leading shape: the batch axes,
    then a derivative's direction axes.  ``layout`` lists the diagonal
    blocks in order as (part index, sign) pairs: block j is
    sign_j * parts[index_j].  ``shape`` is the dense shape (..., dim, dim)
    and ``dense()`` builds that array.  A dense array is one block, laid
    out as ((0, 1),).
    """

    def __init__(self, parts, layout):
        self.parts, self.layout = tuple(parts), tuple(layout)
        dim = sum(self.parts[i].shape[-1] for i, _ in self.layout)
        self.shape = self.parts[0].shape[:-2] + (dim, dim)

    def dense(self):
        """The (..., dim, dim) array, zero off the blocks."""
        out = np.zeros(self.shape)
        start = 0
        for i, sign in self.layout:
            span = slice(start, start + self.parts[i].shape[-1])
            out[..., span, span] = sign * self.parts[i]
            start = span.stop
        return out

    @functools.cached_property
    def eigenvalues(self):
        """Eigenvalues (..., dim) of the metrics, block by block: one
        ``eigvalsh`` per part, computed once per object.

        Raises SingularMetric when any metric is singular, part by part: an
        entry or an eigenvalue of a part is not finite, or the part's
        min|lambda| <= SINGULAR_RCOND max|lambda|.  The rule is scale-free,
        so c g is singular exactly when g is, and a dense array is one part.
        """
        ev = [np.linalg.eigvalsh(p) for p in self.parts]
        for p, e in zip(self.parts, ev):
            size = np.abs(e)
            if (not (np.all(np.isfinite(p)) and np.all(np.isfinite(e)))
                    or np.any(size.min(axis=-1) <= SINGULAR_RCOND * size.max(axis=-1))):
                raise SingularMetric("metric is singular: a block's smallest |eigenvalue| vanishes "
                                     "next to its largest")
        return np.concatenate([sign * ev[i] for i, sign in self.layout], axis=-1)


def as_blocks(a):
    """a as a BlockDiagonal: a dense array is one block."""
    return a if isinstance(a, BlockDiagonal) else BlockDiagonal((np.asarray(a, dtype=float),), ((0, 1),))


def engine_arrays(v, dx, dy, dxx, dyy, dxy):
    """(comp, d1, d2) engine arrays of a metric v and its partials, given in
    ``central_differences``' order."""
    return v, np.stack([dx, dy], axis=-3), np.stack([np.stack([dxx, dxy], axis=-3),
                                                     np.stack([dxy, dyy], axis=-3)], axis=-4)


# ---------------------------------------------------------------------------
# term tables over the structural non-zeros
# ---------------------------------------------------------------------------

def _key(cols, size, n):
    """One integer per entry of the n-entry coordinate columns cols, each below size."""
    return sum((c * size ** i for i, c in enumerate(cols)), np.zeros(n, dtype=np.int64))


def _products(subs, layouts):
    """Each letter's coordinates and each factor's rows at the products whose
    factors are all structurally non-zero: the factors' layouts joined on
    their shared letters, a repeated letter keeping only diagonal entries."""
    size = 1 + max(int(layout.max(initial=0)) for layout in layouts)
    letters, rows = {}, []
    for sub, layout in zip(subs, layouts):
        keep = np.flatnonzero((layout == layout[:, [sub.index(ch) for ch in sub]]).all(axis=1))
        shared = [ch for ch in dict.fromkeys(sub) if ch in letters]
        lkey = _key([letters[ch] for ch in shared], size, rows[0].size if rows else 1)
        rkey = _key([layout[keep, sub.index(ch)] for ch in shared], size, keep.size)
        # every pair of equal keys, read off the sorted right keys
        order = np.argsort(rkey, kind="stable")
        lo, hi = np.searchsorted(rkey[order], lkey, "left"), np.searchsorted(rkey[order], lkey, "right")
        left = np.repeat(np.arange(lkey.size), hi - lo)
        right = keep[order[np.arange(left.size) + np.repeat(hi - np.cumsum(hi - lo), hi - lo)]]
        rows = [r[left] for r in rows] + [right]
        letters = {ch: v[left] for ch, v in letters.items()}
        letters.update((ch, layout[right, i]) for i, ch in enumerate(sub) if ch not in letters)
    return letters, rows


def _contractions(*terms):
    """Term tables of einsum contractions onto one layout, the union of
    their structural non-zeros.

    A layout is a tensor's (entries, rank) list of structural non-zeros in
    the C order of ``np.argwhere``; an entry's position is its value row.  A
    term is (subs, order, *layouts): ``np.einsum(subs, ...)`` of factors laid
    out by layouts, ``order`` listing the summed letters, outermost first, in
    the order einsum adds the products.  Returns the output layout and, per
    term, one (rounds, entries) table of value rows per factor: round r holds
    each output entry's r-th product whose factors are all structurally
    non-zero, or the +0 row where the entry has fewer.
    """
    joined = []
    for subs, order, *layouts in terms:
        ins, out = subs.split("->")
        letters, rows = _products(ins.split(","), layouts)
        walk = np.lexsort([letters[ch] for ch in (out + order)[::-1]])  # einsum's C-order walk
        joined.append((np.stack([letters[ch][walk] for ch in out], axis=-1), [r[walk] for r in rows]))
    layout, slots = np.unique(np.concatenate([c for c, _ in joined]), axis=0, return_inverse=True)
    all_tables = []
    for (_, rows), slot in zip(joined, np.split(slots, np.cumsum([len(c) for c, _ in joined])[:-1])):
        rank = np.arange(slot.size) - np.searchsorted(slot, slot)  # slot is sorted
        tables = [np.full((rank.max(initial=-1) + 1, len(layout)), -1) for _ in rows]
        for table, r in zip(tables, rows):
            table[rank, slot] = r
        all_tables.append(tables)
    return layout, all_tables


class _Plan:
    """Term tables of the Christoffel symbols and, given the pattern of
    d^2 g, of the Ricci tensor, for one pattern of (g^{-1}, d g, d^2 g) and
    the diagonal block sizes of comp."""

    def __init__(self, sizes, g_pattern, d1_pattern, d2_pattern=None):
        dim = g_pattern.shape[0]
        g, d = np.argwhere(g_pattern), np.argwhere(d1_pattern)
        self.g_cols, self.d1_cols = np.flatnonzero(g_pattern), np.flatnonzero(d1_pattern)
        # S_{dbc} = d_b g_{dc} + d_c g_{db} - d_d g_{bc}, Gamma^a_{bc} = 1/2 g^{ad} S_{dbc}
        s, tables = _contractions(("bdc->dbc", "", d), ("cdb->dbc", "", d), ("dbc->dbc", "", d))
        self.s_rows = [t.ravel() for t, in tables]  # one round each, none if S is empty
        gamma, [self.gamma] = _contractions(("ad,dbc->abc", "d", g, s))
        self.gamma_cols = np.ravel_multi_index(gamma.T, (dim,) * 3)
        if d2_pattern is None:
            return
        d2, self.d2_cols = np.argwhere(d2_pattern), np.flatnonzero(d2_pattern)
        # d_e g^{-1} = -g^{-1} d_e g g^{-1}; d_e Gamma = 1/2 (d_e g^{-1} S + g^{-1} d_e S)
        dgi, [self.dgi] = _contractions(("ab,ebc,cd->ead", "bc", g, d, g))
        ds, tables = _contractions(("ebdc->edbc", "", d2), ("ecdb->edbc", "", d2), ("edbc->edbc", "", d2))
        self.ds_rows = [t.ravel() for t, in tables]
        dgamma, self.dgamma = _contractions(("ead,dbc->eabc", "d", dgi, s),
                                            ("ad,edbc->eabc", "d", g, ds))
        # R_{bd} = d_a Gamma^a_{db} - d_d Gamma^a_{ab} + Gamma^a_{ae} Gamma^e_{db}
        #          - Gamma^a_{de} Gamma^e_{ab}
        ricci, self.ricci = _contractions(("iidb->bd", "i", dgamma), ("diib->bd", "i", dgamma),
                                          ("iie,edb->bd", "ie", gamma, gamma),
                                          ("ide,eib->bd", "ei", gamma, gamma))
        # the value row of each on-block entry of R, block by block, or the +0 row
        self.sizes, self.out_layout = sizes, tuple((j, 1) for j in range(len(sizes)))
        part_col = _columns((dim, dim), sizes, self.out_layout)[0][np.ravel_multi_index(ricci.T, (dim, dim))]
        if not (part_col >= 0).all():  # d g or d^2 g couples two of comp's blocks
            raise ValueError("R has a structural non-zero off comp's diagonal blocks")
        self.ricci_rows = np.full(sum(k * k for k in sizes), len(ricci))
        self.ricci_rows[part_col] = np.arange(len(ricci))
        # the scalar's row sums g^{bd} R_{bd} over d, one per live b
        _, [self.scalar] = _contractions(("bd,bd->b", "d", g, ricci))


@functools.lru_cache(maxsize=64)
def _cached_plan(sizes, *keys):
    dim = sum(sizes)
    shapes = [(dim, dim), (2, dim, dim), (2, 2, dim, dim)]
    return _Plan(sizes, *(np.frombuffer(k, dtype=bool).reshape(s) for k, s in zip(keys, shapes)))


@functools.lru_cache(maxsize=64)
def _columns(shape, sizes, layout):
    """Column of each entry of the dense shape (..., dim, dim) among the
    concatenated entries of parts of sizes k x k laid out by layout, and the
    entry's sign; -1 and 0 off the blocks.  Both flattened."""
    counts = [math.prod(shape[:-2]) * k * k for k in sizes]
    # each part holds its columns + 1, so the dense form holds sign * (column + 1)
    signed = BlockDiagonal([np.arange(end - count, end).reshape(shape[:-2] + (k, k)) + 1.0
                            for k, count, end in zip(sizes, counts, np.cumsum(counts))], layout).dense().ravel()
    col, sign = np.abs(signed).astype(int) - 1, np.sign(signed)
    col.flags.writeable = sign.flags.writeable = False  # shared by every caller
    return col, sign


class _Operand:
    """An engine input with nlead batch axes: each part's entries as a
    (points, columns) array, the column and sign of each entry of the dense
    (..., dim, dim) shape, and its structural non-zeros: the entries on the
    blocks that are non-zero at some point of the batch."""

    def __init__(self, blocks, nlead):
        points = math.prod(blocks.shape[:nlead])
        self.flats = [p.reshape(points, math.prod(p.shape[nlead:])) for p in blocks.parts]
        shape = blocks.shape[nlead:]
        self.col, self.sign = _columns(shape, tuple(p.shape[-1] for p in blocks.parts), blocks.layout)
        live = np.concatenate([(f != 0).any(axis=0) for f in self.flats])
        self.pattern = ((self.col >= 0) & live[self.col]).reshape(shape)

    def values(self, blk, cols):
        """(len(cols) + 1, points) value array of the dense entries cols at
        the points blk, with the trailing +0 row."""
        rows = np.concatenate([f[blk] for f in self.flats], axis=1)[:, self.col[cols]].T
        out = np.zeros((cols.size + 1, rows.shape[1]))
        np.multiply(rows, self.sign[cols, None], out=out[:-1])
        return out


def _prepared(comp, *derivatives):
    """Batch shape, plan and operands (g^{-1}, d g[, d^2 g]) of an engine
    call over the flattened batch.  comp must pass the singularity rule; a
    BlockDiagonal keeps its eigenvalues for signature_values.  The
    derivatives must be finite: a skipped product 0 * inf would have been nan."""
    comp = as_blocks(comp)
    comp.eigenvalues  # raises SingularMetric
    derivatives = [as_blocks(d) for d in derivatives]
    if not all(np.all(np.isfinite(p)) for d in derivatives for p in d.parts):
        raise SingularMetric("metric derivatives are not finite: d g or d^2 g holds an inf or nan")
    lead = comp.shape[:-2]
    # inv(sign * part) = sign * inv(part), so g^{-1} keeps comp's layout
    gi = BlockDiagonal([np.linalg.inv(p).reshape((math.prod(lead),) + p.shape[-2:]) for p in comp.parts],
                       comp.layout)
    ops = [_Operand(gi, 1)] + [_Operand(d, len(lead)) for d in derivatives]
    sizes = tuple(comp.parts[i].shape[-1] for i, _ in comp.layout)
    plan = _cached_plan(sizes, *(op.pattern.tobytes() for op in ops))
    return lead, plan, ops


def _combined(values, rows):
    """Value array of x + y - z, the operands read from ``values`` at ``rows``."""
    out = np.zeros((rows[0].size + 1, values.shape[1]))
    out[:-1] = values[rows[0]] + values[rows[1]] - values[rows[2]]
    return out


def _sum(tables, *values):
    """Value array of a contraction: each entry's kept products, the factors
    multiplied left to right, added to +0 in table order.  A skipped product
    is +-0 when its other factors are finite, and x + (+-0) = x."""
    out = np.zeros((tables[0].shape[1] + 1, values[0].shape[1]))
    acc = out[:-1]
    for r in range(tables[0].shape[0]):
        term = values[0][tables[0][r]]
        for v, table in zip(values[1:], tables[1:]):
            term *= v[table[r]]
        acc += term
    return out


def _christoffel_values(plan, g, d1):
    """Value arrays of S and Gamma of a block, given those of g^{-1} and d g."""
    s = _combined(d1, plan.s_rows)
    gamma = _sum(plan.gamma, g, s)
    gamma *= 0.5
    return s, gamma


def christoffel_arrays(comp, d1):
    """Batched Gamma^a_{bc} = 1/2 g^{ad} (d_b g_{dc} + d_c g_{db} - d_d g_{bc})
    of a metric given as arrays or as BlockDiagonal parts."""
    lead, plan, (g, d1) = _prepared(comp, d1)
    every = slice(None)
    with np.errstate(over="ignore", invalid="ignore"):  # as in ricci_arrays
        gamma = _christoffel_values(plan, g.values(every, plan.g_cols), d1.values(every, plan.d1_cols))[1]
    dim = comp.shape[-1]
    out = np.zeros((gamma.shape[1], dim ** 3))
    out[:, plan.gamma_cols] = gamma[:-1].T
    return out.reshape(lead + (dim, dim, dim))


def _ricci_block(plan, ops, blk):
    """ricci_arrays on the points blk of the flattened batch."""
    g, d1, d2 = (op.values(blk, cols) for op, cols in zip(ops, (plan.g_cols, plan.d1_cols, plan.d2_cols)))
    s, gamma = _christoffel_values(plan, g, d1)
    # d_e Gamma^a_{bc} = 1/2 (d_e g^{ad} S_{dbc} + g^{ad} d_e S_{dbc})
    dgi = _sum(plan.dgi, g, d1, g)
    np.negative(dgi[:-1], out=dgi[:-1])
    dgamma = _sum(plan.dgamma[0], dgi, s)
    dgamma += _sum(plan.dgamma[1], g, _combined(d2, plan.ds_rows))
    dgamma *= 0.5
    div_a, div_d, e1, e2 = plan.ricci
    ricci = _sum(div_a, dgamma)
    ricci -= _sum(div_d, dgamma)
    ricci += _sum(e1, gamma, gamma)
    ricci -= _sum(e2, gamma, gamma)
    scalar = sum(_sum(plan.scalar, g, ricci)[:-1], np.zeros(g.shape[1]))  # the rows in increasing b
    denom = 1.0 + np.abs(d2).max(axis=0) + np.abs(gamma).max(axis=0) ** 2
    return ricci[plan.ricci_rows].T, scalar, denom


def ricci_arrays(comp, d1, d2):
    """Batched Ricci computation over any leading batch shape.

    comp is (..., dim, dim), d1 (..., 2, dim, dim) and d2 (..., 2, 2, dim, dim),
    as arrays or as BlockDiagonal parts with one layout.  Returns (ricci,
    scalar, denom): ricci is a BlockDiagonal, one (..., k, k) part per
    diagonal block of comp, and denom is the conditioning scale 1 +
    max|d2 g| + max|Gamma|^2 used for normalized residuals; Gamma itself
    comes from christoffel_arrays.
    """
    lead, plan, ops = _prepared(comp, d1, d2)
    P, step = math.prod(lead), block_points(sum(plan.sizes))
    ricci, scalar, denom = np.empty((P, plan.ricci_rows.size)), np.empty(P), np.empty(P)
    # like the einsum calls they replace, the sums raise no floating-point
    # warnings: an overflow shows as an inf or nan in the result
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, P, step):
            blk = slice(start, start + step)
            ricci[blk], scalar[blk], denom[blk] = _ricci_block(plan, ops, blk)
    ends = np.cumsum([k * k for k in plan.sizes])
    parts = [ricci[:, end - k * k:end].reshape(lead + (k, k)) for k, end in zip(plan.sizes, ends)]
    return BlockDiagonal(parts, plan.out_layout), scalar.reshape(lead), denom.reshape(lead)


# ---------------------------------------------------------------------------
# built-in test metrics with textbook curvature
# ---------------------------------------------------------------------------

def _batch_x(p):
    """x of p = (x, y), broadcast to the batch shape of x and y."""
    return np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in p))[0]


def _diagonal_metric(x, g00, g11, dg11, ddg11):
    """(comp, d1, d2) of diag(g00, g11(x)) over x's batch shape, given
    g11's first and second x-derivatives."""
    comp, dx, dxx, zero = (np.zeros(x.shape + (2, 2)) for _ in range(4))
    comp[..., 0, 0], comp[..., 1, 1] = g00, g11
    dx[..., 1, 1], dxx[..., 1, 1] = dg11, ddg11
    return engine_arrays(comp, dx, zero, dxx, zero, zero)


def flat_metric(p, signs=(1, 1)):
    """Constant diagonal metric, the same at every p; identically zero curvature."""
    shape = _batch_x(p).shape
    dim = len(signs)
    return (np.broadcast_to(np.diag(np.asarray(signs, dtype=float)), shape + (dim, dim)).copy(),
            np.zeros(shape + (2, dim, dim)), np.zeros(shape + (2, 2, dim, dim)))


def polar_metric(p):
    """diag(1, x^2): flat plane in polar form, x playing the radius."""
    x = _batch_x(p)
    return _diagonal_metric(x, 1.0, x ** 2, 2.0 * x, 2.0)


def sphere_metric(p, a=1.0):
    """diag(a^2, a^2 sin^2 x): round sphere of radius a; scalar 2/a^2."""
    x = _batch_x(p)
    return _diagonal_metric(x, a ** 2, (a * np.sin(x)) ** 2, a ** 2 * np.sin(2.0 * x),
                            2.0 * a ** 2 * np.cos(2.0 * x))


def central_differences(at, hx, hy):
    """(D_x, D_y, D_xx, D_yy, D_xy) by second-order central differences,
    where ``at(i, j)`` is the field shifted by (i hx, j hy), i, j in {-1, 0, 1}."""
    return ((at(1, 0) - at(-1, 0)) / (2 * hx),
            (at(0, 1) - at(0, -1)) / (2 * hy),
            (at(1, 0) - 2 * at(0, 0) + at(-1, 0)) / hx ** 2,
            (at(0, 1) - 2 * at(0, 0) + at(0, -1)) / hy ** 2,
            (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * hx * hy))


def ricci_fd(metric_field, p, step: float) -> np.ndarray:
    """Independent Ricci oracle: ``central_differences`` of the metric
    components at spacing ``step``, fed through the same tensor algebra.

    ``p = (x, y)`` holds scalars or equal-shape coordinate arrays.  The
    field is called once, on all nine stencil points: ``metric_field(X, Y)``
    gets X[i + 1, j + 1] = x + i step and Y[i + 1, j + 1] = y + j step, of
    shape (3, 3) + shape(x), and returns the metric there: dense, shape(X) +
    (dim, dim), or a BlockDiagonal such as ``assemble_arrays``' comp, each
    part differenced on its own; the metric may depend on x and y only.
    """
    x, y = (np.asarray(c, dtype=float) for c in p)
    s = float(step)
    off = np.arange(-1, 2) * s
    ox, oy = (o[(...,) + (None,) * x.ndim] for o in np.meshgrid(off, off, indexing="ij"))
    g = as_blocks(metric_field(x + ox, y + oy))
    parts = [engine_arrays(q[1, 1], *central_differences(lambda i, j: q[i + 1, j + 1], s, s)) for q in g.parts]
    return ricci_arrays(*(BlockDiagonal(arrays, g.layout) for arrays in zip(*parts)))[0]
