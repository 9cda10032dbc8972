"""Exact Gaussian sampling for block-equicorrelation models: O(n) draws of
the data and O(H) draws of its sufficient statistics over H exchangeable
classes of blocks.

Random streams are counter-based (Philox) and keyed by the pair
(master_seed, replication_id), so any replication can be regenerated in
isolation and concurrent replications never share state.  (Class draws read
one stream per seed by counter instead; see the end of this docstring.)
Standard normals are produced by a fixed, documented transform: each 64-bit
word w becomes the uniform u = ((w >> 11) + 0.5) * 2**-53, strictly inside
(0, 1), and the normal is the inverse standard-normal CDF of u.  Determinism
across platforms and batch sizes is the point; both steps are elementwise.

Batched rows (raw_rows and the row samplers built on it, normal_rows and
sample_rows) come from one numpy Philox generator per call that is re-keyed
for each replication: its key is set to the replication's pair and its
counter and buffer are reset, which is exactly the state a freshly keyed
generator starts in.  So row r equals the per-replication stream
derive_stream(master_seed, ids[r]) word for word, and no generator (nor its
entropy read) is built per replication.  These rows are n words wide and
serve graph cells, so the Python step per replication is small beside the
row.

Within a cluster of size k with parameter delta, a draw is mixed from iid
normals g_1..g_k with mean gbar as

    X_i = mu_bar + sqrt(1 - delta) (g_i - gbar) + sqrt(1 + (k-1) delta) gbar

which has Var(X_i) = 1 and Cov(X_i, X_j) = delta exactly: the centered part
contributes (1 - delta)(delta_ij - 1/k) and the gbar part (1 + (k-1) delta)/k,
summing to delta_ij (1 - delta) + delta.  This works for negative delta all
the way down to the positive-definiteness boundary, where an additive
"common shock" construction would not.  The two square roots are those of
the block's eigenvalues, which the model carries (BlockEquicorrModel.base and
.top); models are validated on construction, so none is checked here.  The
data paths (sample, sample_rows) draw n words per replication and serve the
scalar API and the oracle tests.  Graph cells draw the same words as
standard normals (normal_rows) and never mix them: mixed_class_stats reduces
them straight to the class statistics of the mixed rows (below), since a
block sum of a mixed row is k mu_bar + sqrt(top) S1(g) and its residuals
are sqrt(base) times those of g, and the graph estimator of every generated
graph is a closed form in these and the row's first value.

Sweeps draw replications in chunks of about _CHUNK_SCALARS = 2**16 scalars
(_chunks; a row wider than that is a chunk of its own), so that a chunk's
buffers stay in cache.  normal_rows keeps one float buffer per chunk: the
raw words are shifted in place, converted once to floats, scaled, and
passed through ndtri in place; sample_rows then mixes them in place
(_mix_rows), and mixed_class_stats squares them in place once it has their
block sums.  Each step applies the same floating-point operation to the same
operands as the formulas above, so the bits of sample_rows are those of
sample.  Every reduction and row kernel is row-independent (elementwise
steps and sums along each row), so reports do not depend on the chunk size
for any kind of cell; the chunk sets only the batch shapes and the memory a
cell needs.

Every other statistic the lab computes depends on a draw only through the
class statistics of cluster_model.class_stats.  Blocks that share
(k, delta) form a class h of M_h exchangeable blocks
(BlockEquicorrModel.classes), and its statistics have an exact joint law.
The block sums S1_m are iid N(k mu_bar, k top), so the class sum
A_h ~ N(M_h k mu_bar, M_h k top) and the within-class square mass
Q_h ~ k top chi^2(M_h - 1) are independent; the residual mass of a block is
base chi^2(k - 1), independent of its sum, so T_h ~ base chi^2(M_h (k - 1)).
class_stat_rows is the one draw of these statistics, at mu_bar = 0 (a mean
only adds M_h k mu_bar to A_h), from 7H + 1 words per replication, laid out
by role: word h < H gives A_h through ndtri(u); word 7H is the randomization
uniform; and the 2H chi-squares, j < H for Q_h and j = H + h for T_h, take
three words each, z = ndtri(word H + j), u = word 3H + j and the fallback
word 5H + j.  A chi-square with nu = 0 is exactly 0 and one with nu = 1 is
z^2.  For nu >= 2 the draw is one attempt of Marsaglia and Tsang's (ACM TOMS
26, 2000) for Gamma(nu / 2), with d = nu / 2 - 1/3, c = 1 / sqrt(9 d) and
v = (1 + c z)^3: the attempt accepts when v > 0 and
log u < z^2 / 2 + d - d v + d log v, and the value is then 2 d v; when it
rejects (4.8% of the time at nu = 2, 2.7% at nu = 3, 0.6% at nu = 10 and
less at larger nu) the value is 2 gammaincinv(nu / 2, fallback word).  This
is exact: an accepted attempt is exactly Gamma(nu / 2), and the attempt and
the fallback read disjoint words, so whichever branch fires the value is
exactly chi^2(nu).  gammaincinv is only the fallback, evaluated only for the
values that need it.  A replication costs O(H) whatever the number of
blocks: 1000 pairs cost 8 words, not 2000.

The class words of a cell come from one stream, the class stream keyed
(master_seed, 2**64 - 1).  Philox is counter-based, so the stream can be
addressed by block: replication r takes the first 7H + 1 words of its
blocks [r b, (r + 1) b), where b = ceil((7H + 1) / 4) and block j is the
j-th 4-word block a freshly keyed generator emits.  A range of replications
is then one numpy draw that starts at counter lo b, and row r is still a
pure function of (master_seed, r): it does not depend on the range it is
drawn in, and it can be regenerated alone.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaincinv, ndtri

from .cluster_model import DENSE_N_CAP, BlockEquicorrModel, block_sums, class_reducer
from .errors import FactorizationError, InvalidInputError, require_float, require_int

_U64_MASK = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53

# Scalars drawn per Monte Carlo chunk: 512 KiB per float buffer, so a graph
# cell's draw and its reduction to class statistics stay in cache (chunks of
# 2**22 passed through temporaries of up to 32 MiB).  Reports do not depend
# on it.
_CHUNK_SCALARS = 1 << 16

# Words per class in a class draw: one for A_h and three for each of the
# chi-squares of Q_h and T_h (see the module docstring).
_CLASS_WORDS = 7


class RandomStream:
    """A deterministic stream of uniforms/normals keyed by (master_seed, replication_id).

    The output is a pure function of the key pair and the draw index; distinct
    pairs give statistically independent streams.
    """

    def __init__(self, master_seed: int, replication_id: int):
        self.master_seed = require_int(master_seed, "master seed")
        self.replication_id = require_int(replication_id, "replication id")
        key = np.array(
            [self.master_seed & _U64_MASK, self.replication_id & _U64_MASK],
            dtype=np.uint64,
        )
        self._bits = np.random.Philox(key=key)

    def raw(self, count: int) -> np.ndarray:
        """count raw 64-bit words from the counter-based generator."""
        return self._bits.random_raw(int(count))

    def uniforms(self, count: int) -> np.ndarray:
        """Uniforms in the open interval (0, 1), 53-bit resolution."""
        return _to_uniform(self.raw(count))

    def normals(self, count: int) -> np.ndarray:
        """Standard normals via the inverse-CDF transform."""
        u = self.uniforms(count)
        return ndtri(u, out=u)


def _to_uniform(raw: np.ndarray) -> np.ndarray:
    """((raw >> 11) + 0.5) * 2**-53 as a new float array; raw is shifted in
    place, so it is spent.  Every step is exact."""
    raw >>= np.uint64(11)
    u = np.add(raw, 0.5)
    u *= _INV_2_53
    return u


def derive_stream(master_seed: int, replication_id: int) -> RandomStream:
    """The stream owned by one replication of one experiment."""
    return RandomStream(master_seed, replication_id)


def raw_rows(master_seed: int, replication_ids, width: int) -> np.ndarray:
    """The first `width` raw words of each replication's stream, one row each.

    Row r equals derive_stream(master_seed, ids[r]).raw(width) bit for bit.
    All state is local to the call, so concurrent calls share none.
    """
    width = require_int(width, "width")
    ids = list(replication_ids)
    out = np.empty((len(ids), width), dtype=np.uint64)
    key = [require_int(master_seed, "master seed") & _U64_MASK, 0]
    # The state of a Philox generator that has just been keyed: zero counter,
    # empty buffer (buffer_pos == 4 forces a refill on the first draw).  The
    # setter reads the words by index, and Python ints read faster than
    # numpy scalars.
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bits = np.random.Philox(key=0)  # re-keyed for every replication below
    for r, rep in enumerate(ids):
        key[1] = int(rep) & _U64_MASK
        bits.state = state
        out[r] = bits.random_raw(width)
    return out


def _chunks(reps: int, width: int):
    """(lo, hi) replication ranges of about _CHUNK_SCALARS scalars at `width`
    per row.

    The boundaries depend only on the arguments and _CHUNK_SCALARS (read at
    call time, so tests can narrow it), never on the worker count.
    """
    size = max(1, _CHUNK_SCALARS // max(1, width))
    for lo in range(0, reps, size):
        yield lo, min(lo + size, reps)


def _mix_rows(g: np.ndarray, model: BlockEquicorrModel, mu_bar: float) -> np.ndarray:
    """Apply the within-cluster mixing to each row of an iid-normal matrix,
    in place, and return it.

    Each step is one elementwise operation on the operands of
    mu_bar + a (g - means) + b means, in its order of evaluation, so the
    result is bit-identical to that expression.  Row-independent: row r of
    the output depends only on row r of g, so a one-row call is bit-identical
    to the same row inside any batch.
    """
    if not np.any(model.deltas_array):
        # Identity covariance: the mixing formula collapses to X = mu_bar + g,
        # and taking the shortcut keeps that collapse exact.
        g += mu_bar
        return g
    cs = model.structure
    sizes = cs.sizes_array
    means = np.repeat(np.add.reduceat(g, cs.starts, axis=-1) / sizes, sizes, axis=-1)
    g -= means
    g *= np.repeat(np.sqrt(model.base), sizes)
    g += mu_bar
    means *= np.repeat(np.sqrt(model.top), sizes)
    g += means
    return g


def sample(model: BlockEquicorrModel, mu_bar: float, stream: RandomStream) -> np.ndarray:
    """One exact draw from N(mu_bar * 1, Sigma(model)), consuming n normals."""
    mu_bar = require_float(mu_bar, "mu_bar")
    g = stream.normals(model.structure.n)
    return _mix_rows(g[np.newaxis, :], model, mu_bar)[0]


def normal_rows(master_seed: int, replication_ids, n: int) -> np.ndarray:
    """The first n standard normals of each replication's stream, one row each.

    Row r equals derive_stream(master_seed, ids[r]).normals(n) bit for bit;
    the uniforms and the inverse-CDF transform run in place in one float
    buffer.
    """
    u = _to_uniform(raw_rows(master_seed, replication_ids, n))
    return ndtri(u, out=u)


def sample_rows(
    model: BlockEquicorrModel,
    mu_bar: float,
    master_seed: int,
    replication_ids,
) -> np.ndarray:
    """Stack the draws of many replications into a (len(ids), n) matrix.

    Row r equals sample(model, mu_bar, derive_stream(master_seed, ids[r]))
    bit-for-bit; this entry point just amortizes the inverse-CDF transform and
    the mixing over the batch, which run in place in one float buffer.
    """
    mu_bar = require_float(mu_bar, "mu_bar")
    return _mix_rows(normal_rows(master_seed, replication_ids, model.structure.n), model, mu_bar)


def mixed_class_stats(g: np.ndarray, model: BlockEquicorrModel, mu_bar: float):
    """(A, Q, T, x0): the class statistics (cluster_model.class_stats) and the
    first column of the rows that _mix_rows(g, model, mu_bar) would make from
    the standard-normal rows g (B, n), read from g without mixing it.  The
    rows are squared in place, so g is spent.

    Mixing scales a block's residuals g_i - gbar_m by sqrt(base_m) and its
    mean by sqrt(top_m), so the block sum of a mixed row is
    k_m mu_bar + sqrt(top_m) S1_m(g), and per class A = sqrt(top) A(g) +
    M_h k_h mu_bar, Q = top Q(g) and T = base T(g).  Over g the masses are
    taken in one pass, Q(g) = sum S1_m^2 - A(g)^2 / M_h and
    T(g) = sum g_i^2 - sum S1_m^2 / k_h: normals have mean 0, so nothing
    cancels (and a class of one block, or of singletons, gets exactly 0).
    Every step is elementwise or a reduction along each row, so row r does
    not depend on the batch.
    """
    mu_bar = require_float(mu_bar, "mu_bar")
    cs = model.structure
    first, counts, sizes = model.class_first, model.class_counts, model.class_sizes
    top, base = model.top[first], model.base[first]
    per_class = class_reducer(model)
    s1 = block_sums(g, cs)
    mean0 = s1[:, 0] / cs.sizes[0]
    x0 = mu_bar + np.sqrt(model.base[0]) * (g[:, 0] - mean0) + np.sqrt(model.top[0]) * mean0
    a = per_class(s1)
    s1 *= s1
    s1sq = per_class(s1)
    g *= g
    q = s1sq - a * a / counts
    t = per_class(block_sums(g, cs)) - s1sq / sizes
    return np.sqrt(top) * a + counts * sizes * mu_bar, top * q, base * t, x0


def class_stat_rows(model: BlockEquicorrModel, master_seed: int, replications: range):
    """Class statistics and a randomization uniform per replication.

    Returns (A, Q, T, u) with shapes (B, H), (B, H), (B, H) and (B,),
    distributed exactly as class_stats of a draw from N(0, Sigma(model)),
    plus an independent uniform, for the B replications of the range (of
    step 1).  A nonzero mean adds M_h k_h mu_bar to A_h.  Replication r reads
    blocks [r b, (r + 1) b) of the class stream (see the module docstring).
    """
    sizes, counts = model.class_sizes, model.class_counts
    top, base = model.top[model.class_first], model.base[model.class_first]
    h = counts.size
    if replications.step != 1:
        raise InvalidInputError(f"class draws take a range of step 1, got {replications!r}")
    width = _CLASS_WORDS * h + 1
    blocks = -(-width // 4)  # 4-word Philox blocks per replication
    seed = require_int(master_seed, "master seed")
    key = np.array([seed & _U64_MASK, _U64_MASK], dtype=np.uint64)
    bits = np.random.Philox(key=key, counter=replications.start * blocks)
    raw = bits.random_raw(len(replications) * 4 * blocks).reshape(-1, 4 * blocks)
    w = _to_uniform(raw[:, :width])
    dof = np.concatenate((counts - 1, counts * (sizes - 1)))
    chi2 = _chi_squares(dof, w[:, h : width - 1].reshape(-1, 3, 2 * h))
    a = np.sqrt(counts * sizes * top) * ndtri(w[:, :h])
    return a, sizes * top * chi2[:, :h], base * chi2[:, h:], w[:, width - 1]


def _chi_squares(dof: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Exact chi-squares, column j with dof[j] degrees of freedom, from a
    (B, 3, J) block of uniforms whose rows along axis 1 are the words
    (z, u, fallback) of each value (see the module docstring).

    Only values whose Marsaglia-Tsang attempt rejects go on to gammaincinv;
    every step is elementwise, so a value's bits do not depend on the rest of
    the block.
    """
    gamma = dof >= 2  # the other columns are replaced at the end
    d = np.maximum(0.5 * dof, 1.0) - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    z = ndtri(w[:, 0])
    v = 1.0 + c * z
    v = v * v * v
    with np.errstate(invalid="ignore", divide="ignore"):  # v > 0 masks log v where v <= 0
        accept = (v > 0.0) & (np.log(w[:, 1]) < 0.5 * z * z + d - d * v + d * np.log(v))
    chi2 = 2.0 * d * v
    rows, cols = np.nonzero(~accept & gamma)
    chi2[rows, cols] = 2.0 * gammaincinv(0.5 * dof[cols], w[rows, 2, cols])
    return np.where(gamma, chi2, np.where(dof == 1, z * z, 0.0))


def _class_chunks(model: BlockEquicorrModel, reps: int):
    """_chunks for class_stat_rows, which draws 7H + 1 words per replication."""
    return _chunks(reps, _CLASS_WORDS * model.class_counts.size + 1)


def sample_dense(mean, sigma, stream: RandomStream) -> np.ndarray:
    """Exact Gaussian draw via a dense Cholesky factor (oracle path).

    mean is a length-n vector, sigma an SPD matrix with n <= DENSE_N_CAP.
    Raises FactorizationError when sigma is not SPD.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise InvalidInputError("sigma must be a square matrix")
    n = sigma.shape[0]
    if n > DENSE_N_CAP:
        raise InvalidInputError(f"dense operations are capped at n = {DENSE_N_CAP}")
    if mean.shape != (n,):
        raise InvalidInputError(f"mean must be a vector of length {n}")
    try:
        lower = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"sigma is not positive definite: {exc}") from exc
    return mean + lower @ stream.normals(n)
