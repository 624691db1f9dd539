"""Structure-of-arrays network backends: vectorized star-topology models.

These are the numpy counterparts of :class:`~repro.netmodel.maxmin.MaxMinStarNetwork`
and :class:`~repro.netmodel.packet.PacketNetwork`, built on
:class:`~repro.des.soa.SoaFluidEngine` — one fused engine per model that
holds flows as rows of parallel arrays (remaining bytes, rate, link
membership as index arrays, frozen fair share, saturation-round index) and
runs both the fluid bookkeeping and the rate solve as masked array
operations.

The max-min engine warm-starts from the *saturation order* of the previous
solve (the sequence of bottleneck links), vectorizing the water-fill rounds
away entirely:

* given a candidate bottleneck order, every flow's round is the earlier of
  its two links' positions, and the round shares satisfy one *lower
  triangular* linear system (each bottleneck's capacity is exhausted by
  its own round plus the flows it loses to earlier rounds) — solved in a
  single vectorized triangular solve instead of sequential rounds;
* the candidate is then *certified* by one ``(links x rounds)`` masked
  matrix check: no link with unfrozen flows may undercut any round's
  share (the same ``1 - 1e-9`` tolerance as the scalar warm replay).  A
  certified order reproduces max-min exactly — an undercutting link would
  have had to freeze below its certified round, which the check excludes;
* on a membership change the previous order (minus emptied rounds, plus
  new links appended) usually certifies directly or after re-sorting
  rounds by their computed shares; a handful of sort-and-resolve repairs
  cover bottleneck reorderings, and anything still uncertified falls back
  to the scalar solver (counted in ``full_fallbacks``, like every warm
  miss).

Because certification is sufficient for exactness, the fast path never
trades accuracy for speed: the ``verify_incremental`` shadow re-solves
with the scalar :func:`~repro.netmodel.waterfill.maxmin_solve` and
enforces 1e-9 agreement, and the fallback *is* the scalar solver.  The
equivalence contract is documented in ``docs/allocator_protocol.md``.

Only the water-filling laws have a twin: their solve is a program over
the whole component, which numpy runs at once.  The equal-share and
CPU laws re-rate a one-hop dirty set, where array set-up costs more than
the handful of Python assignments it replaces (``docs/performance.md``
section 6).

Constructing either model without numpy raises
:class:`~repro.errors.ConfigurationError`; the scenario registry
(``scenario/builtins.py``) instead falls back to the scalar model with a
one-line hint, so specs naming ``maxmin-soa`` etc. still run everywhere.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.des.fluid import VERIFY_RTOL
from repro.des.soa import SoaFluidEngine, np
from repro.des.kernel import Kernel

if np is not None:
    try:
        # The raw LAPACK triangular solve: ~5x less call overhead than
        # scipy.linalg.solve_triangular at water-fill sizes (tens of rounds).
        from scipy.linalg.lapack import dtrtrs as _dtrtrs
    except ImportError:  # pragma: no cover - scipy genuinely optional
        _dtrtrs = None
else:  # pragma: no cover - numpy-less environments never solve
    _dtrtrs = None


def _tri_solve(B: Any, rhs: Any) -> Any:
    """Solve the lower-triangular round system ``B @ s = rhs``."""
    if _dtrtrs is not None:
        s, info = _dtrtrs(B, rhs, lower=1)
        if info == 0:
            return s
    return np.linalg.solve(B, rhs)
from repro.errors import SimulationError
from repro.netmodel.base import _WARM_RTOL, NetworkModel, Transfer
from repro.netmodel.packet import PacketLaw, PacketNetworkParams
from repro.netmodel.params import NetworkParams
from repro.netmodel.waterfill import CAPACITY_ATOL, flow_links, maxmin_solve


def _solo_classes(out: Any, inn: Any) -> list[tuple[int, int, int]]:
    """One count-1 class per flow, for the scalar reference solver."""
    return [(*flow_links(o, i), 1) for o, i in zip(out.tolist(), inn.tolist())]


class _StarSoaEngine(SoaFluidEngine):
    """Shared star-topology geometry: two link ids and a factor per flow.

    Links ("out" of the source, "in" to the destination) live in one
    combined integer id space; ``link_total`` tracks live flows per link.
    ``factor`` is a per-flow constant rate multiplier (the packet model's
    seeded throughput factor; 1.0 elsewhere) applied on top of the fair
    share, which keeps every warm-start argument intact because the fair
    shares themselves are factor-free.
    """

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        on_complete,
        capacity: float,
        verify: bool = False,
    ) -> None:
        super().__init__(kernel, name, on_complete, verify=verify)
        self.capacity = float(capacity)
        n = self.work.shape[0]
        self.out_l = np.zeros(n, dtype=np.int64)
        self.in_l = np.zeros(n, dtype=np.int64)
        self.factor = np.ones(n)
        self.fair = np.zeros(n)
        self._link_ids: dict[tuple[int, int], int] = {}
        self.link_total = np.zeros(16, dtype=np.int64)

    def _grow_slots(self, old: int, new: int) -> None:
        for attr, one in (("out_l", 0), ("in_l", 0), ("factor", 1), ("fair", 0)):
            src = getattr(self, attr)
            arr = (
                np.zeros(new, dtype=src.dtype)
                if not one
                else np.ones(new, dtype=src.dtype)
            )
            arr[:old] = src
            setattr(self, attr, arr)

    def _link_id(self, kind: int, node: int) -> int:
        key = (kind, node)
        lid = self._link_ids.get(key)
        if lid is None:
            lid = len(self._link_ids)
            self._link_ids[key] = lid
            if lid >= self.link_total.shape[0]:
                grown = np.zeros(self.link_total.shape[0] * 2, dtype=np.int64)
                grown[: self.link_total.shape[0]] = self.link_total
                self.link_total = grown
        return lid

    def add_flow(
        self, work: float, src: int, dst: int, tag: Any, factor: float = 1.0
    ) -> int:
        """Admit a flow crossing ``("out", src)`` and ``("in", dst)``."""
        slot = self._admit(work, tag)
        if slot < 0:
            return slot
        self.out_l[slot] = self._link_id(0, src)
        self.in_l[slot] = self._link_id(1, dst)
        self.factor[slot] = factor
        self.fair[slot] = 0.0
        self._added.append(slot)
        self._solve_pending()
        return slot

    def _apply_delta(
        self, added: list[int], removed: list[int]
    ) -> list[int]:
        """Update live link membership counts; returns the affected links."""
        affected: dict[int, None] = {}
        lt = self.link_total
        for slot in removed:
            a = int(self.out_l[slot])
            b = int(self.in_l[slot])
            lt[a] -= 1
            lt[b] -= 1
            affected[a] = None
            affected[b] = None
        for slot in added:
            a = int(self.out_l[slot])
            b = int(self.in_l[slot])
            lt[a] += 1
            lt[b] += 1
            affected[a] = None
            affected[b] = None
        return list(affected)

    def _live_flows(self):
        """(live slot indices, out link ids, in link ids) of active flows."""
        live_idx = np.flatnonzero(self.live)
        return live_idx, self.out_l[live_idx], self.in_l[live_idx]


class _MaxMinSoaEngine(_StarSoaEngine):
    """Vectorized incremental max-min water-filling (see module docstring)."""

    #: total solve attempts per update (the first on the predicted order,
    #: the rest on repair re-sorts) before the scalar fallback
    _MAX_ATTEMPTS = 10

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        n = self.work.shape[0]
        #: round each slot froze in at the last accepted solve
        self._slot_round = np.zeros(n, dtype=np.int64)
        #: cached saturation order from the last accepted solve: the
        #: bottleneck link ids, first-frozen first (``None`` = cold)
        self._order: Optional[Any] = None
        #: round shares / frozen-flow counts / link -> position, aligned
        #: with ``_order`` (the data the share predictor works from)
        self._s: Optional[Any] = None
        self._cnt: Optional[Any] = None
        self._posL: Optional[Any] = None
        #: scratch buffers for the attempt loop, grown on demand
        self._ar = np.arange(64, dtype=np.int64)
        self._posbuf = np.empty(0, dtype=np.int64)
        self._rhsbuf = np.empty(0)

    def _grow_slots(self, old: int, new: int) -> None:
        super()._grow_slots(old, new)
        sr = np.zeros(new, dtype=np.int64)
        sr[:old] = self._slot_round
        self._slot_round = sr

    # ------------------------------------------------------------- allocator
    def _solve_update(self, added: list[int], removed: list[int]) -> None:
        self._apply_delta(added, removed)
        if self._nlive == 0:
            # The cached order references links that may all be empty now.
            self._order = None
            return
        if self._order is None or not self._candidate_solve(added, removed):
            self._full_solve(fallback=True)

    def _full_solve(self, fallback: bool) -> None:
        """Scalar reference solve + cache rebuild (fallback path)."""
        live_idx, out, inn = self._live_flows()
        if fallback:
            self.stats.full_fallbacks += 1
            self.stats.rates_computed += live_idx.size
        # The combined link-id space doubles as pseudo node ids:
        # ``flow_links`` forms egress ``2 * out_id + 1`` and ingress
        # ``2 * in_id`` links, which are in bijection with this engine's
        # links (``link >> 1`` maps back).
        solution = maxmin_solve(_solo_classes(out, inn), self.capacity)
        fair = np.asarray(solution.rates)
        self.fair[live_idx] = fair
        self.rate[live_idx] = fair * self.factor[live_idx]
        rounds = solution.rounds
        R = len(rounds)
        order = np.empty(R, dtype=np.int64)
        s = np.empty(R)
        cnt = np.empty(R, dtype=np.int64)
        for k, (link, share, indices) in enumerate(rounds):
            order[k] = link >> 1
            s[k] = share
            cnt[k] = len(indices)
            members = np.fromiter(indices, dtype=np.int64, count=len(indices))
            self._slot_round[live_idx[members]] = k
        self._cache(order, s, cnt)

    def _cache(self, order: Any, s: Any, cnt: Any) -> None:
        self._order = order
        self._s = s
        self._cnt = cnt
        posL = np.full(len(self._link_ids), -1, dtype=np.int64)
        posL[order] = np.arange(order.shape[0], dtype=np.int64)
        self._posL = posL

    def _link_pos(self, link: int) -> int:
        posL = self._posL
        return int(posL[link]) if link < posL.shape[0] else -1

    def _predict_order(self, added: list[int], removed: list[int]):
        """Reposition the delta's links by locally predicted freeze shares.

        A removed flow either leaves its link's own round (same residual
        over one fewer flow) or frees its earlier-frozen rate into the
        link's pool; an added flow joins the round (same residual over one
        more).  The predictions ignore cross-link cascades — they only
        pick the candidate positions, and certification vets the result.
        Returns ``(candidate order, inserted-new-link flag)``.
        """
        order, s, cnt, cap = self._order, self._s, self._cnt, self.capacity
        lt = self.link_total
        state: dict[int, list] = {}

        def seed(link: int) -> list:
            st = state.get(link)
            if st is None:
                k = self._link_pos(link)
                if k >= 0:
                    st = [float(s[k]), int(cnt[k]), k]
                else:
                    # Not a bottleneck last time (or brand new): predict
                    # from the isolated-link share over the post-delta
                    # membership, and skip the per-flow adjustments below.
                    st = [cap / max(int(lt[link]), 1), 0, -1]
                state[link] = st
            return st

        for f in removed:
            j = int(self._slot_round[f])
            freed = float(s[j]) if j < s.shape[0] else 0.0
            for link in (int(self.out_l[f]), int(self.in_l[f])):
                st = seed(link)
                if st[2] < 0:
                    continue
                if j < st[2]:
                    st[0] += freed / max(st[1], 1)
                elif st[1] > 1:
                    st[0] *= st[1] / (st[1] - 1)
                    st[1] -= 1
                else:
                    st[1] = 0
        for f in added:
            for link in (int(self.out_l[f]), int(self.in_l[f])):
                st = seed(link)
                if st[2] < 0:
                    continue
                if st[1] > 0:
                    st[0] *= st[1] / (st[1] + 1)
                st[1] += 1
        keepmask = np.ones(order.shape[0], dtype=bool)
        links_py = []
        vals_py = []
        inserted_new = False
        for link, st in state.items():
            if st[2] >= 0:
                keepmask[st[2]] = False
            else:
                inserted_new = True
            links_py.append(link)
            vals_py.append(st[0])
        keys = np.concatenate((s[keepmask], np.asarray(vals_py)))
        cand = np.concatenate(
            (order[keepmask], np.asarray(links_py, dtype=np.int64))
        )
        return cand[keys.argsort(kind="stable")], inserted_new

    def _candidate_solve(self, added: list[int], removed: list[int]) -> bool:
        """Solve against a predicted saturation order; certify or repair.

        Each attempt solves the lower-triangular round system for the
        candidate order, then certifies the result with the max-min
        optimality conditions (every bottleneck row is saturated by
        construction, so the allocation is max-min iff shares are
        non-negative, no flow outrates a later-frozen link it crosses, and
        no non-bottleneck link is pushed over capacity).  An uncertified
        candidate is repaired by re-sorting every member-bearing link on
        its implied freeze share.  Returns ``False`` (caller pays the
        accounted scalar fallback) if nothing certifies within
        ``_MAX_ATTEMPTS``.
        """
        cap = self.capacity
        live_idx, out, inn = self._live_flows()
        L = len(self._link_ids)
        if len(added) + len(removed) <= 8:
            order, inserted_new = self._predict_order(added, removed)
        else:
            # Bulk delta: cached order plus any unseen live links, appended
            # in link-id (= registration) order.
            touched = np.zeros(L, dtype=bool)
            touched[out] = True
            touched[inn] = True
            in_cached = np.zeros(L, dtype=bool)
            in_cached[self._order] = True
            new_links = np.flatnonzero(touched & ~in_cached)
            inserted_new = bool(new_links.size)
            order = (
                np.concatenate((self._order, new_links))
                if new_links.size
                else self._order
            )
        if self._ar.shape[0] < L + 1:
            self._ar = np.arange(max(L + 1, 2 * self._ar.shape[0]), dtype=np.int64)
        if self._posbuf.shape[0] < L:
            self._posbuf = np.empty(L, dtype=np.int64)
            self._rhsbuf = np.full(L, float(self.capacity))
        ar = self._ar
        both = None
        for attempt in range(self._MAX_ATTEMPTS):
            R0 = order.shape[0]
            if R0 == 0:  # pragma: no cover - live flows imply live links
                return False
            # Flow round = the earlier of its two links' positions; links
            # absent from the order park at position R0, which only ever
            # loses the min (every flow's first-freezing link is present).
            posL = self._posbuf
            posL[:] = R0
            posL[order] = ar[:R0]
            p_out = posL[out]
            p_in = posL[inn]
            r_f = np.minimum(p_out, p_in)
            other = np.maximum(p_out, p_in)
            # Compress empty rounds so the system is square and regular.
            cnt0 = np.bincount(r_f, minlength=R0)
            if cnt0.shape[0] > R0:  # pragma: no cover - drift guard
                return False
            nz = cnt0 > 0
            newidx = nz.cumsum() - 1
            rr = newidx[r_f]
            sub = order[nz]
            cnt = cnt0[nz]
            Rp = sub.shape[0]
            # Lower-triangular system: bottleneck k's capacity is consumed
            # by its own round (cnt_k flows at share s_k) plus each member
            # frozen by an earlier bottleneck (share s_{rr_f}).
            ext_nz = np.zeros(R0 + 1, dtype=bool)
            ext_nz[:R0] = nz
            keep = ext_nz[other]
            rows = newidx[other[keep]]
            cols = rr[keep]
            B = (
                np.bincount(rows * Rp + cols, minlength=Rp * Rp)
                .reshape(Rp, Rp)
                .astype(np.float64)
            )
            diag = ar[:Rp]
            B[diag, diag] += cnt
            s = _tri_solve(B, self._rhsbuf[:Rp])
            # Certification: shares non-negative, and no flow's rate
            # exceeds the share of the later-frozen link it crosses (the
            # bottleneck condition, with the scalar replay's 1e-9 slack).
            fair = None
            ok = float(s.min()) >= 0.0 and not (
                s[cols] > s[rows] * (1.0 + _WARM_RTOL)
            ).any()
            if ok:
                fair = s[rr]
                if not keep.all():
                    # Some flow's second link is not a bottleneck: it must
                    # not be pushed over capacity (bottleneck rows sit at
                    # exactly ``cap`` by construction).
                    if both is None:
                        both = np.concatenate((out, inn))
                    load = np.bincount(
                        both,
                        weights=np.concatenate((fair, fair)),
                        minlength=L,
                    )
                    ok = not (load > cap * (1.0 + _WARM_RTOL) + CAPACITY_ATOL).any()
            if ok:
                self.fair[live_idx] = fair
                self.rate[live_idx] = fair * self.factor[live_idx]
                self.stats.warm_starts += 1
                if inserted_new:
                    self.stats.warm_inserts += 1
                self.stats.rates_computed += live_idx.size
                self._slot_round[live_idx] = rr
                self._cache(sub, s, cnt)
                return True
            if attempt == self._MAX_ATTEMPTS - 1:
                return False
            # Repair: re-sort every member-bearing link on its implied
            # freeze share — the round share for current bottlenecks,
            # tightened by the residual-over-unfrozen ratio wherever the
            # link undercuts a round it still has members in.
            if both is None:
                both = np.concatenate((out, inn))
            rboth = np.concatenate((rr, rr))
            flat = both * Rp + rboth
            cntM = np.bincount(flat, minlength=L * Rp).reshape(L, Rp)
            # Every flow frozen in round k carries rate s_k exactly, so the
            # consumption matrix is the count matrix scaled per column.
            conM = cntM * s[None, :]
            cumcnt = cntM.cumsum(axis=1)
            cumcon = conM.cumsum(axis=1)
            # Exclusive (strictly-before-round-k) sums via inclusive minus
            # the at-k column.
            unfrozen = cumcnt[:, -1:] - (cumcnt - cntM)
            residual = cap - (cumcon - conM)
            badM = (unfrozen > 0) & (
                residual < s[None, :] * (1.0 - _WARM_RTOL) * unfrozen
            )
            ratio = np.where(badM, residual / np.maximum(unfrozen, 1), np.inf)
            v = ratio.min(axis=1)
            # Current bottlenecks re-sort on their round share, pulled up to
            # the largest rate any of their flows carries (a saturated link
            # freezes exactly at its maximal member rate, so outrate
            # violations push the link later instead of lingering).
            mr = s.copy()
            np.maximum.at(mr, rows, s[cols])
            v[sub] = np.minimum(v[sub], mr)
            links = np.flatnonzero(cumcnt[:, -1] > 0)
            order = links[v[links].argsort(kind="stable")]
        return False  # pragma: no cover - loop exits via the guard above

    def _verify_full(self) -> None:
        """Shadow the incremental state with the scalar reference solver."""
        live_idx, out, inn = self._live_flows()
        solution = maxmin_solve(_solo_classes(out, inn), self.capacity)
        expected = np.asarray(solution.rates) * self.factor[live_idx]
        got = self.rate[live_idx]
        scale = np.maximum(np.maximum(np.abs(expected), np.abs(got)), 1.0)
        bad = np.abs(expected - got) > VERIFY_RTOL * scale
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise SimulationError(
                f"engine {self.name!r}: incremental SoA rate diverged from "
                f"the reference solve (flow {i}: {got[i]!r} != {expected[i]!r})"
            )


# --------------------------------------------------------------------------
# model front-ends
# --------------------------------------------------------------------------


class MaxMinStarNetworkSoA(NetworkModel):
    """SoA backend of :class:`~repro.netmodel.maxmin.MaxMinStarNetwork`.

    Same topology, same rates (max-min water-filling with warm-started
    incremental re-solves), same observability; the per-flow state lives in
    numpy arrays instead of Python objects.  ``verify_incremental=True``
    shadows every solve with the scalar reference solver.
    """

    def __init__(
        self,
        kernel: Kernel,
        params: NetworkParams,
        verify_incremental: bool = False,
    ) -> None:
        super().__init__(kernel, params)
        self._pool = _MaxMinSoaEngine(
            kernel,
            "maxmin-soa-network",
            self._finish,
            params.bandwidth,
            verify=verify_incremental,
        )
        #: allocator-protocol stats surface (``RunRecord`` model metrics)
        self.allocator = self._pool

    def _begin_drain(self, transfer: Transfer) -> None:
        self._pool.add_flow(transfer.size, transfer.src, transfer.dst, transfer)


class PacketNetworkSoA(PacketLaw):
    """SoA backend of :class:`~repro.netmodel.packet.PacketNetwork`.

    The chunking, ramp-up folding and seeded noise are the scalar model's
    own (:class:`~repro.netmodel.packet.PacketLaw`), so the same seed
    produces the same testbed "measurements" on either backend; the seeded
    throughput factor becomes the engine's per-flow ``factor``.
    """

    def __init__(
        self,
        kernel: Kernel,
        params: NetworkParams,
        packet_params: PacketNetworkParams | None = None,
        seed: int = 0,
        verify_incremental: bool = False,
    ) -> None:
        super().__init__(kernel, params, packet_params, seed)
        self._pool = _MaxMinSoaEngine(
            kernel,
            "packet-soa-network",
            self._finish,
            params.bandwidth,
            verify=verify_incremental,
        )
        self.allocator = self._pool

    def _admit(self, transfer: Transfer, work: float, throughput: float) -> None:
        self._pool.add_flow(
            work, transfer.src, transfer.dst, transfer, factor=throughput
        )
