"""Exact Gaussian sampling for block-equicorrelation models: O(n) draws of
the data and O(H) draws of its sufficient statistics over H exchangeable
classes of blocks.

Random streams are counter-based (Philox) and keyed by the pair
(master_seed, replication_id), so any replication can be regenerated in
isolation and concurrent replications never share state.  (Class draws read
one stream per seed by counter instead; see the end of this docstring.)
Standard normals are produced by a fixed, documented transform of each
64-bit word w, every step of which is exact.  numpy's own uniform
(Generator.random on the same Philox words) is x = m 2**-53 with
m = w >> 11, and the transform centres it as q = (x - 1/2) + 2**-54, so
q 2**54 is the odd integer 2 (m - 2**52) + 1: q lies in
[-1/2 + 2**-54, 1/2 - 2**-54], is never 0, and complementing the top 53 bits
of w negates it.  The normal is the inverse standard-normal CDF at 1/2 + q,
by Wichura's AS241 (Applied Statistics 37, 1988; _inverse_normal): its
central rational in r = 0.180625 - q^2 where r >= 0 (|q| <= 0.425), and its
tail rationals in sqrt(-log p) at the tail probability p = 1/2 - |q|, which
is exact too (down to 2**-54), with the sign of q.  So no word gives an
infinite normal, and the normal of a complemented word is the exact
negative.  The uniform of a word is u = 2 p = 1 - 2 |q| = (i + 1/2) 2**-52,
again exact and strictly inside (0, 1).  Determinism across platforms and
batch sizes is the point; both steps are elementwise.

Batched rows (normal_rows and sample_rows, built on it) come from one numpy
Philox generator per call that is re-keyed for each replication: its key is
set to the replication's pair and its counter and buffer are reset, which is
exactly the state a freshly keyed generator starts in.  So row r equals the
per-replication stream derive_stream(master_seed, ids[r]) word for word, and
no generator (nor its entropy read) is built per replication.  These rows
are n words wide and serve graph cells, so the Python step per replication
is small beside the row.

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
buffers stay in cache.  normal_rows fills one float buffer per chunk with
numpy's uniforms, centres them and runs the inverse normal over it in place,
in slices of _CHUNK_SCALARS through a scratch buffer per call in progress;
sample_rows then mixes them in place (_mix_rows), and mixed_class_stats
squares them in place once it has their block sums.  Each step applies the
same floating-point operation to the same operands as the formulas above,
so the bits of sample_rows are those of sample.  Every reduction and row
kernel is row-independent (elementwise steps and sums along each row), so
reports do not depend on the chunk size for any kind of cell; the chunk
sets only the batch shapes and the memory a cell needs.

Every other statistic the lab computes depends on a draw only through the
class statistics of cluster_model.class_stats.  Blocks that share
(k, delta) form a class h of M_h exchangeable blocks
(BlockEquicorrModel.classes), and its statistics have an exact joint law.
The block sums S1_m are iid N(k mu_bar, k top), so the class sum
A_h ~ N(M_h k mu_bar, M_h k top) and the within-class square mass
Q_h ~ k top chi^2(M_h - 1) are independent; the residual mass of a block is
base chi^2(k - 1), independent of its sum, so T_h ~ base chi^2(M_h (k - 1)).
class_stat_rows is the one draw of these statistics, at mu_bar = 0 (a mean
only adds M_h k mu_bar to A_h), from 5H + 1 words per replication, laid out
by role: word h < H gives A_h through its normal; word 5H is the
randomization uniform; and the 2H chi-squares, j < H for Q_h and j = H + h
for T_h, take the normal z of word H + j and the uniform u of word 3H + j.
A chi-square with nu = 0 is exactly 0 and one with nu = 1 is z^2.  For
nu >= 2 the draw is Marsaglia and Tsang's (ACM TOMS 26, 2000) for
Gamma(nu / 2), with d = nu / 2 - 1/3, c = 1 / sqrt(9 d) and
v = (1 + c z)^3: an attempt accepts when v > 0 and
log u < z^2 / 2 + d - d v + d log v, and the value is then 2 d v.  The
first attempt reads the words above; when it rejects (4.8% of the time at
nu = 2, 2.7% at nu = 3, 0.6% at nu = 10 and less at larger nu) the value
takes further attempts, until one accepts, from a region of the class
stream that no class word reaches, addressed by the replication r and the
value j (_retries): attempts 2 k + 2 and 2 k + 3 read the normal and the
uniform of words (0, 1) and (2, 3) of the first 4-word block that numpy's
Philox emits when keyed like the class stream and set to the counter
(k, j, r, 1) (its four counter words, the lowest first).  This is exact:
the first accepted attempt of a sequence of independent attempts is exactly
Gamma(nu / 2), so the value is exactly chi^2(nu).  A replication costs O(H)
whatever the number of blocks: 1000 pairs cost 6 words, not 2000.

The class words of a cell come from one stream, the class stream keyed
(master_seed, 2**64 - 1).  Philox is counter-based, so the stream can be
addressed by block: replication r takes the first 5H + 1 words of its
blocks [r b, (r + 1) b), where b = ceil((5H + 1) / 4) and block j is the
j-th 4-word block a freshly keyed generator emits.  A range of replications
is then one numpy draw that starts at counter lo b, and row r is still a
pure function of (master_seed, r): it does not depend on the range it is
drawn in, and it can be regenerated alone.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
from numpy.random import Generator, Philox  # numpy imports its random module lazily

from .cluster_model import DENSE_N_CAP, BlockEquicorrModel, block_sums, class_reducer
from .errors import FactorizationError, InvalidInputError, require_float, require_int

_U64_MASK = (1 << 64) - 1

# Scalars drawn per Monte Carlo chunk: 512 KiB per float buffer, so a graph
# cell's draw and its reduction to class statistics stay in cache (chunks of
# 2**22 passed through temporaries of up to 32 MiB).  Reports do not depend
# on it.
_CHUNK_SCALARS = 1 << 16

# Words per class in a class draw: one for A_h and two for each of the
# chi-squares of Q_h and T_h (see the module docstring).
_CLASS_WORDS = 5


def _stacked(num, den, offset=0.0):
    """AS241 coefficients, highest degree first, as an (8, 2, 1) array whose
    rows are (num - offset den, den): one Horner pass evaluates both.  The
    offset row is rounded once from the exact values."""
    rows = [(float(Fraction(a) - Fraction(offset) * Fraction(b)), b) for a, b in zip(num, den)]
    return np.array(rows)[:, :, np.newaxis]


# Wichura's AS241 (PPND16).  The central ratio num/den lies in
# [sqrt(2 pi), 3.39]; it is evaluated as sqrt(2 pi) + (num - sqrt(2 pi) den)/den,
# the same rational, so that its rounding falls on the small second term
# (2 ulps from the exact quantile instead of 5).
_ROOT_2PI = math.sqrt(2.0 * math.pi)
_CENTRAL = _stacked(
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
    offset=_ROOT_2PI,
)
_INTERMEDIATE = _stacked(
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
     4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
     2.05319162663775882187e0, 1.0),
)
_FAR = _stacked(
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)
# 1.6 - float(1.6): the intermediate branch's shift is 1.6 itself (the
# double 1.6 moved its values by about one ulp).
_SHIFT_LO = float(Fraction(8, 5) - Fraction(1.6))

# Scratch buffers of _inverse_normal, one per call in progress: a call pops
# one (list.pop and append are atomic) and returns it when done.  They
# outlive the threads that used them, so a sweep's new worker threads do not
# fault in fresh pages (a 1.5 MiB buffer is 384 page faults).
_buffers: list = []


class RandomStream:
    """A deterministic stream of uniforms/normals keyed by (master_seed, replication_id).

    The output is a pure function of the key pair and the draw index; distinct
    pairs give statistically independent streams.  raw, uniforms and normals
    each consume one 64-bit word per value from the same sequence.
    """

    def __init__(self, master_seed: int, replication_id: int):
        self.master_seed = require_int(master_seed, "master seed")
        self.replication_id = require_int(replication_id, "replication id")
        key = np.array(
            [self.master_seed & _U64_MASK, self.replication_id & _U64_MASK],
            dtype=np.uint64,
        )
        self._bits = Philox(key=key)
        self._generator = Generator(self._bits)

    def raw(self, count: int) -> np.ndarray:
        """count raw 64-bit words from the counter-based generator."""
        return self._bits.random_raw(int(count))

    def uniforms(self, count: int) -> np.ndarray:
        """Uniforms u = 1 - 2|q| = (i + 1/2) 2**-52, strictly inside (0, 1)."""
        return _uniforms(_centered(self._generator.random(int(count))))

    def normals(self, count: int) -> np.ndarray:
        """Standard normals via the inverse-CDF transform."""
        return _inverse_normal(_centered(self._generator.random(int(count))))


def _centered(x: np.ndarray) -> np.ndarray:
    """q = (x - 1/2) + 2**-54 in place, for numpy's uniforms x = m 2**-53, as
    the one subtraction x - (1/2 - 2**-54): its exact value
    (2 m - 2**53 + 1) 2**-54 is a double, so it is not rounded."""
    x -= 0.5 - 2.0**-54
    return x


def _uniforms(q: np.ndarray) -> np.ndarray:
    """u = 1 - 2|q| in place, exact and strictly inside (0, 1)."""
    np.abs(q, out=q)
    q *= -2.0
    q += 1.0
    return q


def _ratio(coef: np.ndarray, r: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """num(r) / den(r) of a stacked coefficient array (_stacked), by one
    Horner pass over the (2, N) buffer acc; the ratio is left in acc[0]."""
    np.multiply(coef[0], r, out=acc)
    acc += coef[1]
    for c in coef[2:]:
        acc *= r
        acc += c
    num, den = acc
    num /= den
    return num


def _inverse_normal(q: np.ndarray) -> np.ndarray:
    """The standard-normal quantile at 1/2 + q (AS241), in place on the
    C-contiguous array q of values in (-1/2, 1/2), which it returns.

    The central rational runs on every element, in slices of _CHUNK_SCALARS
    through one scratch buffer (_buffers); the elements outside it (about 15%
    of uniform q) are gathered from the flat slice and overwritten by the
    tail branches (_tail).  Every step is elementwise, so a value does not
    depend on the rest of the array, and q and -q give exact negatives.
    """
    flat = q.reshape(-1)
    step = _CHUNK_SCALARS
    work = _buffers.pop() if _buffers else None
    if work is None or work.size < 3 * min(flat.size, step):
        work = np.empty(3 * step)
    try:
        for lo in range(0, flat.size, step):
            part = flat[lo : lo + step]
            n = part.size
            acc, r = work[: 2 * n].reshape(2, n), work[2 * n : 3 * n]
            np.multiply(part, part, out=r)
            np.subtract(0.180625, r, out=r)
            tails = np.flatnonzero(r < 0.0)
            q_tails = part.take(tails)
            ratio = _ratio(_CENTRAL, r, acc)
            ratio += _ROOT_2PI
            part *= ratio
            if tails.size:
                part[tails] = _tail(q_tails, work)
    finally:
        _buffers.append(work)
    return q


def _tail(q: np.ndarray, work: np.ndarray) -> np.ndarray:
    """AS241's two tail branches at q (|q| > 0.425), from the exact tail
    probability p = 1/2 - |q| and r = sqrt(-log p): the intermediate
    rational in r - 1.6 for r <= 5 and the far one in r - 5 beyond.  The
    values are left in the scratch buffer work (3 q.size floats at least)."""
    m = q.size
    acc, r = work[: 2 * m].reshape(2, m), work[2 * m : 3 * m]
    np.abs(q, out=r)
    np.subtract(0.5, r, out=r)
    np.log(r, out=r)
    np.negative(r, out=r)
    np.sqrt(r, out=r)
    far = np.flatnonzero(r > 5.0)
    r_far = r.take(far)
    r -= 1.6
    r -= _SHIFT_LO
    z = _ratio(_INTERMEDIATE, r, acc)
    if far.size:
        z[far] = _ratio(_FAR, r_far - 5.0, np.empty((2, far.size)))
    return np.copysign(z, q, out=z)


# A test cell's z kernel asks for the same quantile once per chunk and mean.
@functools.lru_cache(maxsize=64)
def _normal_quantile(p: float) -> float:
    """The standard-normal p-quantile for p in (0, 1), by _inverse_normal at
    q = p - 1/2 (exact for p >= 1/4)."""
    return float(_inverse_normal(np.array([p - 0.5]))[0])


def derive_stream(master_seed: int, replication_id: int) -> RandomStream:
    """The stream owned by one replication of one experiment."""
    return RandomStream(master_seed, replication_id)


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

    Row r equals derive_stream(master_seed, ids[r]).normals(n) bit for bit:
    numpy fills each row with the uniforms of its stream, and the transform
    runs in place over the whole buffer.  All state is local to the call, so
    concurrent calls share none.
    """
    n = require_int(n, "width")
    ids = list(replication_ids)
    out = np.empty((len(ids), n))
    key = [require_int(master_seed, "master seed") & _U64_MASK, 0]
    bits, generator, state = _rekeyable(key, [0, 0, 0, 0])
    for r, rep in enumerate(ids):
        key[1] = int(rep) & _U64_MASK
        bits.state = state
        generator.random(out=out[r])
    return _inverse_normal(_centered(out))


def _rekeyable(key: list, counter: list):
    """(bits, generator, state): a Philox generator and the state that
    re-keys it.  Setting bits.state = state puts it where a generator
    freshly keyed with the current words of the lists key and counter
    starts: that counter, an empty buffer (buffer_pos == 4 forces a refill
    on the first draw).  The setter reads the words by index, and Python
    ints read faster than numpy scalars."""
    state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bits = Philox(key=0)
    return bits, Generator(bits), state


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
    blocks [r b, (r + 1) b) of the class stream, and its rejected
    chi-squares their own counter region (see the module docstring).
    """
    sizes, counts = model.class_sizes, model.class_counts
    top, base = model.top[model.class_first], model.base[model.class_first]
    h = counts.size
    if replications.step != 1:
        raise InvalidInputError(f"class draws take a range of step 1, got {replications!r}")
    width = _CLASS_WORDS * h + 1
    blocks = -(-width // 4)  # 4-word Philox blocks per replication
    key = [require_int(master_seed, "master seed") & _U64_MASK, _U64_MASK]
    bits = Philox(key=np.array(key, dtype=np.uint64), counter=replications.start * blocks)
    x = Generator(bits).random(len(replications) * 4 * blocks)
    # one row per word of the layout and one column per replication, so that
    # every step below runs along the replications
    q = np.ascontiguousarray(_centered(x).reshape(-1, 4 * blocks)[:, :width].T)
    g = _inverse_normal(q[: 3 * h])  # the A words, then the z words
    u = _uniforms(q[3 * h :])  # the u words, then the randomization word
    dof = np.concatenate((counts - 1, counts * (sizes - 1)))
    chi2 = _chi_squares(dof, g[h:], u[: 2 * h], key, replications.start)
    a = np.sqrt(counts * sizes * top)[:, np.newaxis] * g[:h]
    q_mass = (sizes * top)[:, np.newaxis] * chi2[:h]
    t_mass = base[:, np.newaxis] * chi2[h:]
    return (*(np.ascontiguousarray(m.T) for m in (a, q_mass, t_mass)), u[2 * h])


def _gamma_attempt(d, c, z, u):
    """(2 d v, accepted) of Marsaglia-Tsang attempts at Gamma(d + 1/3) from
    normals z and uniforms u, elementwise (see the module docstring)."""
    v = 1.0 + c * z
    v = v * v * v
    with np.errstate(invalid="ignore", divide="ignore"):  # v > 0 masks log v where v <= 0
        accept = (v > 0.0) & (np.log(u) < 0.5 * z * z + d - d * v + d * np.log(v))
    return 2.0 * d * v, accept


def _chi_squares(dof: np.ndarray, z: np.ndarray, u: np.ndarray, key, first: int) -> np.ndarray:
    """Exact chi-squares, row j with dof[j] degrees of freedom, column i for
    replication first + i, from the (J, B) normals z and uniforms u of their
    first attempts; the values whose first attempt rejects take their further
    attempts from _retries.  A value's bits do not depend on the rest of the
    block."""
    dof = dof[:, np.newaxis]
    gamma = dof >= 2  # the other rows are replaced at the end
    d = np.maximum(0.5 * dof, 1.0) - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    chi2, accept = _gamma_attempt(d, c, z, u)
    cols, rows = np.nonzero(~accept & gamma)
    if rows.size:
        chi2[cols, rows] = _retries(key, first + rows, cols, d[cols, 0], c[cols, 0])
    return np.where(gamma, chi2, np.where(dof == 1, z * z, 0.0))


def _retries(key, reps: np.ndarray, cols: np.ndarray, d: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The value 2 d v of the first accepted Marsaglia-Tsang attempt after the
    first, per (replication, chi-square) pair reps[i], cols[i]: round k reads
    two attempts of (normal, uniform) words from the first block that Philox
    keyed `key` emits from counter (k, col, rep, 1), until one accepts."""
    out = np.empty(reps.size)
    counter = [0, 0, 0, 1]
    bits, generator, state = _rekeyable(key, counter)
    addresses = list(zip(cols.tolist(), reps.tolist()))
    pending = np.arange(reps.size)
    while pending.size:
        x = np.empty((pending.size, 4))
        for i, v in enumerate(pending.tolist()):
            counter[1], counter[2] = addresses[v]
            bits.state = state
            generator.random(out=x[i])
        q = _centered(x)
        z = _inverse_normal(q[:, 0::2].copy())
        value, accept = _gamma_attempt(d[pending, None], c[pending, None], z, _uniforms(q[:, 1::2]))
        hit = accept.any(axis=1)
        out[pending[hit]] = value[hit, accept[hit].argmax(axis=1)]
        pending = pending[~hit]
        counter[0] += 1
    return out


def _class_chunks(model: BlockEquicorrModel, reps: int):
    """_chunks for class_stat_rows, which draws 5H + 1 words per replication."""
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
