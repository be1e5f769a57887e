"""Cascaded channel models for a transmitter, L reflecting surfaces, and a receiver.

Two representations are supported:

* ``CascadedChannelTensor`` stores the aggregate coefficient h[n_1, ..., n_L]
  for every tuple in [0:N]^L, where index 0 means "surface skipped" and index
  n >= 1 means the path bounces off element n of that surface.  The effective
  scalar channel under a phase assignment theta is

      g(theta) = sum_h h[n_1..n_L] * exp(j * sum_{ell: n_ell>0} theta_{n_ell}).

* ``LinkChannelGraph`` stores the individual node-to-node links (transmitter
  to elements, elements to elements of a later surface, elements to receiver,
  plus the direct scalar).  Paths visit surfaces in strictly increasing order;
  expanding all path products reproduces the tensor exactly.

Both forms answer the same queries through the dispatch helpers below:
``effective_channel``, ``stage_coefficients``, ``direct_gain``, ``dims``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .phases import PhaseAssignment

# Dense tensors get big fast: (N+1)^L complex entries.
MAX_TENSOR_ENTRIES = 10**7
# Entries per compute block: it bounds every temporary of the probe loops,
# the in-place phase fill and the tensor's finite check.  The 2**15 to 2**18
# sweep behind it is recorded in CHANGES.md.
_BLOCK = 1 << 16


def _check_tensor_size(num_surfaces: int, num_elements: int, error=ValueError):
    """Raise `error`, before allocation, for an (N+1)^L tensor above the cap."""
    entries = (num_elements + 1) ** num_surfaces
    if entries > MAX_TENSOR_ENTRIES:
        raise error(f"a dense tensor at L={num_surfaces}, N={num_elements} would hold "
                    f"{entries} entries, above the {MAX_TENSOR_ENTRIES} cap")


@dataclass(frozen=True)
class RadioParams:
    """Transmit power and noise power, both in watts."""

    transmit_power_w: float = 1.0
    noise_power_w: float = 10.0 ** (-12.8)

    def __post_init__(self):
        if not (self.transmit_power_w > 0):
            raise ValueError("transmit power must be positive")
        if not (self.noise_power_w >= 0):
            raise ValueError("noise power must be nonnegative")


@dataclass(frozen=True)
class CascadedChannelTensor:
    """Aggregate path coefficients over [0:N]^L.

    entries[n_1, ..., n_L]: n_ell = 0 skips surface ell, n_ell >= 1 reflects
    off element n_ell.  entries[0, ..., 0] is the direct channel.

    A read-only, C-contiguous complex128 array is shared, so a builder that
    freezes its fresh array hands it over uncopied; anything else is copied.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries)
        if a.flags.writeable or not a.flags.c_contiguous or a.dtype != np.complex128:
            a = np.array(a, dtype=np.complex128, order="C")
        if a.ndim < 1:
            raise ValueError("tensor must have at least one axis")
        shape = a.shape
        if any(s != shape[0] for s in shape) or shape[0] < 2:
            raise ValueError(f"tensor axes must all equal N+1 >= 2, got shape {shape}")
        _check_tensor_size(a.ndim, shape[0] - 1)
        flat = a.reshape(-1)
        if not all(np.isfinite(flat[b:b + _BLOCK]).all() for b in range(0, flat.size, _BLOCK)):
            raise ValueError("tensor entries must be finite")
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def num_surfaces(self) -> int:
        return self.entries.ndim

    @property
    def num_elements(self) -> int:
        return self.entries.shape[0] - 1

    @property
    def direct(self) -> complex:
        return complex(self.entries[(0,) * self.num_surfaces])


def _as_complex_vector(v, n: int, what: str) -> np.ndarray:
    a = np.array(v, dtype=np.complex128, copy=True)
    if a.shape != (n,):
        raise ValueError(f"{what} must have shape ({n},), got {a.shape}")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LinkChannelGraph:
    """Individual links of the cascaded system.

    tx_to_irs[ell][n-1]      : transmitter -> element n of surface ell
    irs_to_rx[ell][n-1]      : element n of surface ell -> receiver
    irs_to_irs[(i, j)][m-1, n-1] : element m of surface i -> element n of
                                   surface j, defined only for i < j
    tx_to_rx                 : direct scalar channel

    An irs_to_irs entry may also be given as a tuple (u, v) of two length-N
    vectors, meaning the rank-one matrix outer(u, v), which is what a
    line-of-sight surface pair produces.  irs_to_irs keeps the pair as it
    is, never the N x N matrix, so the forward pass applies that hop in
    O(B*N) instead of O(B*N^2); hop() materializes it on demand.
    """

    tx_to_irs: tuple[np.ndarray, ...]
    irs_to_rx: tuple[np.ndarray, ...]
    irs_to_irs: dict = field(default_factory=dict)
    tx_to_rx: complex = 0.0 + 0.0j

    def __post_init__(self):
        tx, rx = tuple(self.tx_to_irs), tuple(self.irs_to_rx)
        if not tx or len(tx) != len(rx):
            raise ValueError("need matching tx_to_irs and irs_to_rx vectors, one per surface")
        n = np.size(tx[0])
        if n < 1:
            raise ValueError("surfaces must have at least one element")
        tx = tuple(_as_complex_vector(v, n, f"tx_to_irs[{i}]") for i, v in enumerate(tx))
        rx = tuple(_as_complex_vector(v, n, f"irs_to_rx[{i}]") for i, v in enumerate(rx))
        L = len(tx)
        hops = {}
        for key, mat in dict(self.irs_to_irs).items():
            i, j = key
            if not (0 <= i < j < L):
                raise ValueError(f"irs_to_irs key {key} must satisfy 0 <= i < j < L={L}")
            key = (int(i), int(j))
            if isinstance(mat, tuple):
                if len(mat) != 2:
                    raise ValueError(f"irs_to_irs[{key}] as a tuple must be a (u, v) pair")
                hops[key] = tuple(_as_complex_vector(x, n, f"irs_to_irs[{key}] factor")
                                  for x in mat)
                continue
            m = np.array(mat, dtype=np.complex128, copy=True)
            if m.shape != (n, n):
                raise ValueError(f"irs_to_irs[{key}] must have shape ({n}, {n})")
            m.flags.writeable = False
            hops[key] = m
        for v in tx + rx + tuple(hops.values()):
            if not np.all(np.isfinite(v)):
                raise ValueError("link entries must be finite")
        object.__setattr__(self, "tx_to_irs", tx)
        object.__setattr__(self, "irs_to_rx", rx)
        object.__setattr__(self, "irs_to_irs", hops)
        object.__setattr__(self, "tx_to_rx", complex(self.tx_to_rx))

    @property
    def num_surfaces(self) -> int:
        return len(self.tx_to_irs)

    @property
    def num_elements(self) -> int:
        return self.tx_to_irs[0].size

    def hop(self, i: int, j: int) -> np.ndarray:
        """Surface i -> surface j coupling matrix, zeros if the link is absent
        and outer(u, v), built on each call, for a (u, v) pair."""
        m = self.irs_to_irs.get((i, j))
        if m is None:
            n = self.num_elements
            return np.zeros((n, n), dtype=np.complex128)
        return np.outer(*m) if isinstance(m, tuple) else m


Channel = Union[CascadedChannelTensor, LinkChannelGraph]


def dims(channel: Channel) -> tuple[int, int]:
    """(number of surfaces L, elements per surface N)."""
    return channel.num_surfaces, channel.num_elements


def direct_gain(channel: Channel) -> complex:
    if isinstance(channel, CascadedChannelTensor):
        return channel.direct
    return complex(channel.tx_to_rx)


def _check_assignment(channel: Channel, phases: PhaseAssignment):
    L, n = dims(channel)
    if phases.num_surfaces != L or phases.num_elements != n:
        raise ValueError(
            f"assignment for {phases.num_surfaces} surfaces x {phases.num_elements} "
            f"elements does not match channel with {L} surfaces x {n} elements"
        )


def _forward(graph: LinkChannelGraph, factors, absorbing=None, reverse=False):
    """Forward pass over the surfaces in order, for B assignments at once.

    factors[ell] holds the (B, N) reflection factors of surface ell.  Each
    surface re-radiates its incoming field times its factors, except surface
    `absorbing`, which re-radiates nothing.  Returns (g, incoming): g[b] sums
    every path that avoids the absorbing surface, and incoming is the (B, N)
    field arriving at the absorbing surface (None without one).

    reverse=True runs the pass over the reversed graph, with no copies: the
    receiver transmits, the surfaces come in reverse order, and each hop is
    transposed, (u, v) read as (v, u) and a matrix as its transpose view.
    incoming is then the field from each element of the absorbing surface
    (still given in the original order, as the factors are) to the receiver.
    That pass stops at the absorbing surface, so its g is partial.

    A rank-one hop outer(u, v) out of surface i adds (w_i @ u)[:, None] * v
    to the next field, kept as the (B,) coefficient and v.  A surface whose
    field is only such terms plus its transmitter link, and which has no
    full-matrix hop out, never forms its (B, N) field: all it passes on is
    w @ y for its receiver link and the u of its rank-one hops out, and with
    w = f * (tx + sum_t coef_t * v_t) these all come from one (B, N) @ (N, k)
    product of its factors, O(B*N) per surface.
    """
    b, n = factors[0].shape
    L = graph.num_surfaces
    txs, rxs, hops = graph.tx_to_irs, graph.irs_to_rx, graph.irs_to_irs
    if reverse:
        txs, rxs, factors = rxs[::-1], txs[::-1], factors[::-1]
        hops = {(L - 1 - j, L - 1 - i): hop[::-1] if isinstance(hop, tuple) else hop.T
                for (i, j), hop in hops.items()}
        absorbing = L - 1 - absorbing
        L = absorbing + 1
    g = np.full(b, graph.tx_to_rx, dtype=np.complex128)
    dense = [None] * L  # (B, N): transmitter link plus full-matrix hops in
    terms = [[] for _ in range(L)]  # (coef (B,), v (N,)) from rank-one hops in
    absorbed = None
    for ell in range(L):
        f, tx, rx = factors[ell], txs[ell], rxs[ell]
        out = [j for j in range(ell + 1, L) if (ell, j) in hops]
        thin = [j for j in out if isinstance(hops[(ell, j)], tuple)]
        full = [j for j in out if j not in thin]
        if ell != absorbing and dense[ell] is None and not full:
            ys = np.stack([rx] + [hops[(ell, j)][0] for j in thin], axis=1)
            k = ys.shape[1]
            p = f @ np.concatenate([tx[:, None] * ys] + [v[:, None] * ys for _, v in terms[ell]],
                                   axis=1)
            proj = p[:, :k]
            for t, (coef, _) in enumerate(terms[ell], start=1):
                proj = proj + coef[:, None] * p[:, t * k:(t + 1) * k]
            g += proj[:, 0]
            for col, j in enumerate(thin, start=1):
                terms[j].append((proj[:, col], hops[(ell, j)][1]))
            continue
        incoming = dense[ell]
        if incoming is None:
            incoming = np.broadcast_to(tx, (b, n)).copy()
        for coef, v in terms[ell]:
            incoming += coef[:, None] * v
        if ell == absorbing:
            absorbed = incoming
            continue
        w = f * incoming
        g += w @ rx
        for j in thin:
            u, v = hops[(ell, j)]
            terms[j].append((w @ u, v))
        for j in full:
            if dense[j] is None:
                dense[j] = np.broadcast_to(txs[j], (b, n)).copy()
            dense[j] += w @ hops[(ell, j)]
    return g, absorbed


def contract(entries: np.ndarray, rows, keep=None) -> np.ndarray:
    """Contract a dense array against one weight row per axis, for B rows
    at once.

    rows[i] is a (B, d_i) weight array for axis i.  Axis `keep` is left
    open; the axes after it are contracted from the last one in and the
    axes before it from the first one in, so no reshape copies the array.
    Returns (B,) without `keep` and (B, d_keep) with it (B is 1 when `keep`
    is the only axis).  This is the dense twin of _forward.
    """
    first = 0 if keep is None else keep + 1
    g = entries[None]
    for i in range(entries.ndim - 1, first - 1, -1):
        rest = g.shape[1:-1]
        g = (g.reshape(g.shape[0], -1, g.shape[-1]) @ rows[i][:, :, None]).reshape((-1,) + rest)
    for i in range(first - 1):
        rest = g.shape[2:]
        g = (rows[i][:, None, :] @ g.reshape(g.shape[:2] + (-1,))).reshape((-1,) + rest)
    return g


def _stage_coefficients(channel: Channel, phases: PhaseAssignment, ell: int):
    if isinstance(channel, CascadedChannelTensor):
        rows = [phases.factors_with_skip(i)[None, :] for i in range(channel.num_surfaces)]
        g = contract(channel.entries, rows, keep=ell)[0]
        return complex(g[0]), np.ascontiguousarray(g[1:])
    rows = [phases.factors(i)[None, :] for i in range(channel.num_surfaces)]
    g, incoming = _forward(channel, rows, absorbing=ell)
    _, outgoing = _forward(channel, rows, absorbing=ell, reverse=True)
    return complex(g[0]), incoming[0] * outgoing[0]


def stage_coefficients(channel: Channel, phases: PhaseAssignment, ell: int):
    """Linear decomposition of g in the phases of surface ell.

    Returns (c0, c) with c of shape (N,) such that, holding every other
    surface at the given assignment,

        g(theta_ell) = c0 + sum_n c[n-1] * exp(j * theta_{n}).

    c0 collects every path that skips surface ell; c[n-1] collects the paths
    through its element n, with the other surfaces' phases already applied.
    """
    _check_assignment(channel, phases)
    L = channel.num_surfaces
    if not (0 <= ell < L):
        raise ValueError(f"surface index {ell} out of range for L={L}")
    return _stage_coefficients(channel, phases, ell)


def effective_channel(channel: Channel, phases: PhaseAssignment) -> complex:
    """Effective scalar channel under a phase assignment: c0 + sum_n c_n *
    exp(j * theta_n) with the stage coefficients of the last surface."""
    _check_assignment(channel, phases)
    last = channel.num_surfaces - 1
    c0, c = _stage_coefficients(channel, phases, last)
    return c0 + complex(phases.factors(last) @ c)


def effective_batch(channel: Channel, grids, index_batches) -> np.ndarray:
    """Effective channel for a batch of joint assignments.

    index_batches: sequence of (B, N) integer arrays, one per surface, with
    values in [0, K) of that surface's grid.  Returns a complex vector of
    length B.
    """
    L, n = dims(channel)
    if len(index_batches) != L:
        raise ValueError(f"need {L} index batches, got {len(index_batches)}")
    batches = [np.asarray(idx) for idx in index_batches]
    b = len(batches[0])
    factors = []
    for ell, idx in enumerate(batches):
        if idx.shape != (b, n):
            raise ValueError(f"index batch {ell} must have shape ({b}, {n})")
        grids[ell].check_indices(idx, f"index batch {ell}")
        factors.append(grids[ell].factor_table()[idx])
    if isinstance(channel, CascadedChannelTensor):
        skip = np.ones((b, 1), dtype=np.complex128)
        return contract(channel.entries, [np.concatenate([skip, f], axis=1) for f in factors])
    return _forward(channel, factors)[0]


def expand_links_to_tensor(graph: LinkChannelGraph) -> CascadedChannelTensor:
    """Expand a link graph into the dense path-product tensor.

    Entry (n_1, ..., n_L) with nonzero positions p_1 < ... < p_r is the product

        tx_to_irs[p_1][n] * hop(p_1, p_2)[.,.] * ... * irs_to_rx[p_r][n],

    the all-zero entry being the direct channel.  Absent hop links count as 0.
    """
    L, n = graph.num_surfaces, graph.num_elements
    _check_tensor_size(L, n)
    out = np.zeros((n + 1,) * L, dtype=np.complex128)
    out[(0,) * L] = graph.tx_to_rx
    # One block per nonempty surface subset p_1 < ... < p_r: the view
    # out[1:] on the subset's axes and out[0] on the others, filled in place
    # with the broadcast chain tx[p_1] * hop(p_1, p_2) * ... * rx[p_r],
    # multiplied in path order.  A subset with an absent hop stays zero.
    for subset in range(1, 2**L):
        stops = [ell for ell in range(L) if subset >> ell & 1]
        pairs = list(zip(stops, stops[1:]))
        if any(pair not in graph.irs_to_irs for pair in pairs):
            continue
        hops = [graph.hop(*pair) for pair in pairs]
        r = len(stops)
        block = out[tuple(slice(1, None) if ell in stops else 0 for ell in range(L))]
        block[...] = graph.tx_to_irs[stops[0]].reshape((n,) + (1,) * (r - 1))
        for axis, hop in enumerate(hops):
            block *= hop.reshape((1,) * axis + (n, n) + (1,) * (r - axis - 2))
        block *= graph.irs_to_rx[stops[-1]]
    out.flags.writeable = False
    return CascadedChannelTensor(out)


def received_power(g, params: RadioParams, noise_draws: int = 0, rng=None):
    """Received power for effective channel g (scalar or array).

    With noise_draws = 0 this is |g|^2 * P exactly.  With noise_draws = M >= 1
    it is the mean of M measurements |sqrt(P) * g + z|^2, each with its own
    circularly symmetric complex Gaussian receiver noise z of power sigma^2,
    drawn from rng.
    """
    if noise_draws < 0:
        raise ValueError(f"noise_draws must be nonnegative, got {noise_draws}")
    g = np.asarray(g, dtype=np.complex128)
    p = params.transmit_power_w
    if noise_draws == 0:
        out = (g.real**2 + g.imag**2) * p
        return float(out) if out.ndim == 0 else out
    if rng is None:
        raise ValueError("noisy measurement needs an rng")
    scale = math.sqrt(params.noise_power_w / 2.0)
    shape = (noise_draws,) + g.shape
    z = rng.normal(0.0, scale, size=shape) + 1j * rng.normal(0.0, scale, size=shape)
    y = math.sqrt(p) * g + z
    out = np.mean(y.real**2 + y.imag**2, axis=0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SnrBoost:
    """SNR boost of an assignment.

    mode "ratio": |g(theta)|^2 / |g_direct|^2 (transmit power cancels).
    mode "absolute_power": the direct channel is exactly zero, so the ratio is
    undefined; value is the received signal power |g(theta)|^2 * P in watts.
    """

    value: float
    mode: str


def snr_boost(channel: Channel, phases: PhaseAssignment, params: RadioParams) -> SnrBoost:
    g = effective_channel(channel, phases)
    d = direct_gain(channel)
    if d == 0:
        return SnrBoost(abs(g) ** 2 * params.transmit_power_w, "absolute_power")
    return SnrBoost(abs(g) ** 2 / abs(d) ** 2, "ratio")
