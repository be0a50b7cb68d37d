"""Discrete-time fluid-model simulation backend (``backend="fluid"``).

The packet engine (:mod:`repro.sim.engine` + :mod:`repro.protocols`) is
the reproduction's source of truth: it simulates every packet, ACK and
queue event exactly.  This module trades that exactness for throughput:
it advances per-flow congestion windows and per-queue occupancy in fixed
time steps of ``dt`` seconds, numpy-vectorized across senders *and*
seeds — one array program evaluates a whole seed batch, at sender
counts (hundreds to thousands) the event-driven engine cannot touch.

Three parts
-----------
* **The step loop** (:func:`simulate_fluid`) plays the transport.  It
  replays the *exact* on/off application schedule of the packet engine
  (so both backends see identical workloads and on-time denominators),
  delays departures to the receiver and to the sender's ACK clock by
  per-flow lag rings, sends window-limited and paced, and detects loss
  — a one-RTT recovery standing in for fast recovery.
* **The link/queue model** (:class:`_Links`): FIFO queues with exact
  service and latency, drop-tail overflow and threshold ECN marking;
  CoDel; sfqCoDel; rate traces and outages.
* **The scheme kernels** are not here.  A scheme's fluid port is a
  :class:`~repro.protocols.base.FluidKernel` in its own
  ``protocols/<scheme>.py``, beside its packet controller and reading
  the same constants; :mod:`repro.protocols.registry` lists both in one
  table.  Only kernels of schemes present in a config are built and
  called; a scheme without one (PCC) is refused by name.

``docs/PERFORMANCE.md`` has the model in detail, what is **not**
modeled (timeouts, sub-RTT burstiness, per-whisker usage recording),
the committed fluid-vs-packet tolerance bands, and the recipe for
porting a scheme.  The packet engine stays authoritative.

Determinism
-----------
Every update is elementwise over ``(seeds, flows)`` arrays or a
reduction along the flow axis of one seed's row, so a seed evaluated
alone is bitwise-identical to the same seed inside a batch — the
executors' determinism contract extends to seed-batched fluid runs.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.results import FlowStats, RunResult
from ..core.scenario import NetworkConfig
from ..protocols.base import MAX_WINDOW_PACKETS, FluidStep
from ..protocols.registry import fluid_kernel, fluid_kernels
from ..protocols.transport import DATA_PACKET_BYTES
from .codel import CODEL_INTERVAL, CODEL_TARGET

__all__ = ["simulate_fluid", "fluid_dt", "fluid_refusal"]

_PKT = float(DATA_PACKET_BYTES)


def fluid_dt(config: NetworkConfig) -> float:
    """The fluid time step for ``config``: ~30 steps per unloaded RTT,
    clamped to [0.1 ms, 4 ms].  Depends only on the config, so the same
    task always integrates on the same grid."""
    min_rtt = min(_base_delays(config)[1])
    return min(max(min_rtt / 30.0, 1e-4), 4e-3)


def fluid_refusal(config: NetworkConfig,
                  tree_kinds: Sequence[str] = ()) -> Optional[str]:
    """Why the fluid backend cannot run this scenario, or ``None``.

    Callable *before* any simulation work: ``SimTask.build`` and the
    CLIs use it to fail fast, the offending kind or feature named,
    instead of mid-batch after packet tasks already ran.  ``tree_kinds``
    are the sender kinds that will have rule tables attached; any other
    kind is portable exactly when the registry lists a kernel beside it.
    """
    for kind in config.sender_kinds:
        if kind not in tree_kinds:
            try:
                fluid_kernel(kind)
            except ValueError as error:
                return str(error)
    if config.ecn_threshold is not None and config.queue != "droptail":
        return (f"ECN marking on queue {config.queue!r} is packet-only "
                f"(the fluid model ports threshold marking on droptail "
                f"only — see docs/PERFORMANCE.md)")
    if config.dynamics is not None:
        reason = config.dynamics.packet_only_reason()
        if reason is not None:
            return (f"dynamics feature {reason} is packet-only "
                    f"(no fluid analogue); rate traces and outages "
                    f"are supported")
    return None


# ----------------------------------------------------------------------
# Topology description
# ----------------------------------------------------------------------

def _base_delays(config: NetworkConfig):
    """Per-flow unloaded delays and per-link path structure.

    Returns ``(base_oneway, base_rtt, flow_links, caps, props,
    rev_prop)`` where ``flow_links[f]`` lists bottleneck link indices on
    flow ``f``'s data path in hop order.  Mirrors the packet topology:
    access links are infinitely fast, all propagation sits on the
    bottleneck hops, and the ACK path never queues (40-byte ACKs on
    infinite-rate links serialize in zero time).
    """
    n = config.num_senders
    if config.topology == "dumbbell":
        caps = [config.link_speed_bps(0)]
        one_way = config.rtt_ms / 2e3
        props = [one_way]
        flow_links = [[0] for _ in range(n)]
        rev_prop = [one_way] * n
    else:  # parking_lot: flow 0 crosses both links, flows 1/2 one each
        caps = [config.link_speed_bps(0), config.link_speed_bps(1)]
        d = config.rtt_ms / 2e3
        props = [d, d]
        flow_links = [[0, 1], [0], [1]]
        rev_prop = [2.0 * d, d, d]
    tx = [_PKT * 8.0 / c for c in caps]
    base_oneway = [sum(props[l] + tx[l] for l in flow_links[f])
                   for f in range(n)]
    base_rtt = [base_oneway[f] + rev_prop[f] for f in range(n)]
    return base_oneway, base_rtt, flow_links, caps, props, rev_prop


# ----------------------------------------------------------------------
# Workload schedules (exact replication of OnOffWorkload's RNG draws)
# ----------------------------------------------------------------------

def _flow_schedule(seed: int, flow: int, mean_on: float, mean_off: float,
                   duration: float) -> Tuple[List[float], float]:
    """Toggle times (alternating on, off, on, ...) and total on-time.

    Replays :class:`~repro.sim.workload.OnOffWorkload` exactly: the same
    dedicated ``random.Random`` stream and the same draw order, with
    draws stopping once the next transition falls beyond ``duration`` —
    events past the horizon never fire in the packet engine, so their
    draws never happen there either.
    """
    if mean_on == 0 and mean_off == 0:
        # The always-on degenerate: permanently on, no draws at all
        # (matching AlwaysOnWorkload, which never touches an RNG).
        return [0.0], duration
    rng = random.Random(seed * 1_000_003 + flow * 7_919 + 17)
    p_on = mean_on / (mean_on + mean_off)
    if rng.random() < p_on:
        t = 0.0
    else:
        t = 0.0 if mean_off == 0 else rng.expovariate(1.0 / mean_off)
    toggles: List[float] = []
    on_time = 0.0
    while t <= duration:
        toggles.append(t)                       # ON at t
        start = t
        t += rng.expovariate(1.0 / mean_on)
        on_time += min(t, duration) - start
        if t > duration:
            break
        toggles.append(t)                       # OFF at t
        if mean_off > 0:
            t += rng.expovariate(1.0 / mean_off)
    return toggles, on_time


def _schedules(config: NetworkConfig, seeds: Sequence[int],
               duration: float) -> Tuple[np.ndarray, np.ndarray]:
    """``(toggles[S, N, T], on_time[S, N])`` for the whole grid; each
    flow's toggle times end in at least one ``inf``."""
    rows = [[_flow_schedule(seed, f, config.mean_on_s, config.mean_off_s,
                            duration) for f in range(config.num_senders)]
            for seed in seeds]
    width = max(len(tog) for row in rows for tog, _ in row) + 1
    toggles = [[tog + [np.inf] * (width - len(tog)) for tog, _ in row]
               for row in rows]
    on_time = [[ot for _, ot in row] for row in rows]
    return np.asarray(toggles), np.asarray(on_time)


class _Links:
    """Every bottleneck's queues, per ``(seed, flow, hop)``.  Each step
    the loop calls :meth:`queueing_delay`, then :meth:`serve`, which
    writes four rings at the step's position — departure rates
    ``dep_hist`` (bytes/s per hop; the next hop's arrivals a propagation
    lag later), loss and CE-mark indicators, dropped packets — for the
    loop to read back on each flow's lag."""

    def __init__(self, config: NetworkConfig, S: int, n_steps: int,
                 dt: float, K: int, flow_links: List[List[int]],
                 props: List[float], caps_bps: List[float]):
        N, H, L = len(flow_links), max(map(len, flow_links)), len(props)
        self.dt, self.K = dt, K
        self.is_sfq = config.queue == "sfq_codel"
        self.is_codel = config.queue == "codel"
        self.caps = np.asarray(caps_bps, dtype=np.float64) / 8.0  # bytes/s
        self.buffers = [config.buffer_packets(l) * _PKT for l in range(L)]
        self.ecn_bytes = (config.ecn_threshold * _PKT
                          if config.ecn_threshold is not None else None)
        # Per link: its member (flow, hop) pairs; for each, the upstream
        # hop, its propagation lag, and "first hop" (the sender feeds it).
        hop_link = np.full((N, H), -1, dtype=np.int64)
        for f, links in enumerate(flow_links):
            hop_link[f, :len(links)] = links
        lag = np.asarray([int(round(prop / dt)) for prop in props])
        self.members = []
        for l in range(L):
            fidx, hidx = np.nonzero(hop_link == l)
            h_prev = np.maximum(hidx - 1, 0)
            self.members.append((fidx, hidx, h_prev,
                                 lag[hop_link[fidx, h_prev]], hidx == 0))
        self.q = np.zeros((S, N, H))                 # backlog, bytes
        self.sojourn = [None] * L                    # ... priced, seconds
        self.dep_hist = np.zeros((S, N, H, K))
        self.loss_hist = np.zeros((S, N, K), dtype=bool)
        self.drop_hist = np.zeros((S, N, K))         # packets
        self.mark_hist = (np.zeros((S, N, K), dtype=bool)
                          if self.ecn_bytes is not None else None)
        self.codel_above = [0.0] * L     # timers, shaped like ``sojourn``

        # FIFO curves (see _serve_fifo): cumulative accepted arrivals per
        # link and per member flow, departures, two inversion pointers.
        self.cum_arr = np.zeros((S, L, n_steps + 1))
        self.cum_dep = np.zeros((S, L, n_steps + 1))
        self.cum_arr_f = [np.zeros((S, len(m[0]), n_steps + 1))
                          for m in self.members]
        self.prev_v = [np.zeros((S, len(m[0]))) for m in self.members]
        self.mix_ptr = np.zeros((S, L), dtype=np.int64)
        self.wait_ptr = np.zeros((S, L), dtype=np.int64)
        self.s_idx = np.arange(S)
        self.wait_sum = np.zeros((S, N, H))          # pkt-weighted waits, s
        self.wt_pkts = np.zeros((S, N, H))           # their packet weights
        self.drop_bytes = np.zeros((S, L))
        self.link_out_bytes = np.zeros((S, L))

        # Capacity per step: dynamics are piecewise constant, a static
        # link one that never changes.  During a zero-capacity (outage)
        # step the queueing-delay estimate uses the *nominal* capacity
        # (the backlog drains at that rate once service resumes); a true
        # infinite sojourn would poison every downstream EWMA for nothing.
        self.caps_step = caps_step = np.tile(self.caps, (n_steps, 1))
        self.drop_down = [False] * L
        if config.dynamics is not None:
            for l in range(L):
                schedule = config.dynamics.schedule_for(l)
                self.drop_down[l] = schedule.outage_policy == "drop"
                for at, rate_bps in schedule.timeline(caps_bps[l]):
                    start = min(int(math.ceil(at / dt)), n_steps)
                    caps_step[start:, l] = rate_bps / 8.0
        self.inv_step = 1.0 / np.where(caps_step > 0.0, caps_step,
                                       self.caps[None, :])

    def queueing_delay(self, step: int) -> np.ndarray:
        """Each flow's path queueing delay, ``(S, N)`` seconds: the
        sojourn of the backlog the last step left at every hop."""
        inv_now = self.inv_step[step]
        path_qd = np.zeros(self.q.shape[:2])
        for l, (fidx, hidx, _, _, _) in enumerate(self.members):
            q_mem = self.q[:, fidx, hidx]
            if self.is_sfq:     # a bucket drains at its fair share
                n_act = np.maximum((q_mem > 0).sum(axis=1), 1)
                sojourn = q_mem * (n_act[:, None] * inv_now[l])
            else:
                sojourn = (q_mem.sum(axis=1) * inv_now[l])[:, None]
            path_qd[:, fidx] += sojourn
            self.sojourn[l] = sojourn
        return path_qd

    def serve(self, step: int, rate: np.ndarray) -> None:
        """One step of arrivals, service, overflow and AQM on every
        link; ``rate`` is the senders' packets/s this step."""
        dt, pos_now = self.dt, step % self.K
        caps_now = self.caps_step[step]
        self.loss_hist[:, :, pos_now] = False
        self.drop_hist[:, :, pos_now] = 0.0
        if self.mark_hist is not None:
            self.mark_hist[:, :, pos_now] = False
        inflow0 = rate * _PKT                     # bytes/s entering hop 0
        discipline = self._serve_sfq if self.is_sfq else self._serve_fifo
        for l, (fidx, hidx, h_prev, lag_prev, first) in \
                enumerate(self.members):
            upstream = self.dep_hist[:, fidx, h_prev,
                                     (step - lag_prev) % self.K]
            arr = np.where(first, inflow0[:, fidx], upstream) * dt
            if self.drop_down[l] and caps_now[l] == 0.0:
                # Blackout with a drop policy: arriving fluid is
                # discarded (queued bytes stay for after the outage).
                self.drop_bytes[:, l] += arr.sum(axis=1)
                self.loss_hist[:, fidx, pos_now] |= arr > 1e-9
                self.drop_hist[:, fidx, pos_now] += arr / _PKT
                arr = np.zeros_like(arr)
            out_mem, rem, wait, wpk = discipline(
                l, step, pos_now, self.q[:, fidx, hidx], arr,
                caps_now[l] * dt)
            self.q[:, fidx, hidx] = rem
            self.dep_hist[:, fidx, hidx, pos_now] = out_mem / dt
            self.link_out_bytes[:, l] += out_mem.sum(axis=1)
            self.wait_sum[:, fidx, hidx] += wpk * wait
            self.wt_pkts[:, fidx, hidx] += wpk

    def _codel(self, l, pos_now, avail) -> None:
        """CoDel as a timer: a queue (sfq: each bucket) whose sojourn
        has stayed above target for an interval signals loss."""
        above = self.codel_above[l] = np.where(
            self.sojourn[l] > CODEL_TARGET, self.codel_above[l] + self.dt,
            0.0)
        self.loss_hist[:, self.members[l][0], pos_now] |= \
            (above >= CODEL_INTERVAL) & (avail > 0.0)

    def _serve_sfq(self, l, step, pos_now, q_mem, arr, cap_dt):
        """Fair-share service of per-flow CoDel buckets; returns
        ``(out, remaining, wait, weight)``."""
        avail = q_mem + arr
        out_mem = _waterfill(avail, cap_dt)
        self._codel(l, pos_now, avail)
        # Latency: at arrival, a bucket's bytes wait out their own
        # backlog at the fair-share rate.
        n_arr = np.maximum((avail > 0.0).sum(axis=1), 1)
        wait = (q_mem + 0.5 * arr) \
            * (n_arr[:, None] * self.inv_step[step, l])
        return out_mem, np.maximum(avail - out_mem, 0.0), wait, arr / _PKT

    def _serve_fifo(self, l, step, pos_now, q_mem, arr, cap_dt):
        """*Exact* FIFO service: departures carry the per-flow mix of
        the arrivals they matched (a burst queued ahead starves the
        flows behind it, where proportional sharing would let them keep
        draining), and delays are means over *delivered* bytes — the
        packet engine never counts packets still queued at run end."""
        fidx = self.members[l][0]
        avail = q_mem + arr
        tot = avail.sum(axis=1)
        out_tot = np.minimum(tot, cap_dt)
        # Tail drop at arrival, like the packet droptail queue: overflow
        # falls on this step's *arriving* fluid (never on bytes already
        # queued), so the accepted-arrival curves stay append-only.
        acc = arr
        if math.isfinite(self.buffers[l]):
            over = np.maximum(tot - out_tot - self.buffers[l], 0.0)
            arr_tot = arr.sum(axis=1)
            dropr = np.divide(over, arr_tot, where=arr_tot > 0.0,
                              out=np.zeros_like(arr_tot))
            dropped = arr * dropr[:, None]
            acc = arr - dropped
            self.drop_bytes[:, l] += over
            self.loss_hist[:, fidx, pos_now] |= dropped > 1e-9
            self.drop_hist[:, fidx, pos_now] += dropped / _PKT
        if self.is_codel:
            self._codel(l, pos_now, avail)
        # Append accepted arrivals to the per-flow curves, then hand
        # each flow the slice of its own curve between the previous and
        # the new aggregate departure levels (linear interpolation
        # inside a step — fluid arrives uniformly within dt).
        cum_arr, cum_dep, s_idx = self.cum_arr, self.cum_dep, self.s_idx
        cumAf = self.cum_arr_f[l]
        cumAf[:, :, step + 1] = cumAf[:, :, step] + acc
        cum_arr[:, l, step + 1] = cum_arr[:, l, step] + acc.sum(axis=1)
        q_hi = cum_dep[:, l, step] + out_tot
        cum_dep[:, l, step + 1] = q_hi
        ti, frac = self._invert(self.mix_ptr, l, step, q_hi)
        v_lo = cumAf[s_idx, :, np.minimum(ti, step + 1)]
        v_hi = cumAf[s_idx, :, np.minimum(ti + 1, step + 1)]
        v = v_lo + frac[:, None] * (v_hi - v_lo)
        out_mem = np.maximum(v - self.prev_v[l], 0.0)
        self.prev_v[l] = v
        rem = np.maximum(q_mem + acc - out_mem, 0.0)
        if self.mark_hist is not None:
            # Threshold marking (DCTCP's K): fluid arriving while the
            # standing queue exceeds K is CE-marked — the Alizadeh
            # model's step indicator.
            over_k = rem.sum(axis=1) > self.ecn_bytes
            self.mark_hist[:, fidx, pos_now] |= over_k[:, None]
        # Latency: the step's median departing byte has waited since
        # that byte arrived.
        tj, frac = self._invert(self.wait_ptr, l, step,
                                cum_dep[:, l, step] + 0.5 * out_tot)
        wait = np.maximum((step + 0.5 - tj - frac) * self.dt, 0.0)[:, None]
        return out_mem, rem, wait, out_mem / _PKT

    def _invert(self, ptrs, l, step, level):
        """Invert link ``l``'s accepted-arrival curve at byte counts
        ``level``: advance the pointers ``ptrs[:, l]`` to the last curve
        point not above, return them and the fraction to the next."""
        cum_arr, s_idx, ptr = self.cum_arr, self.s_idx, ptrs[:, l]
        while True:
            nxt = np.minimum(ptr + 1, step + 1)
            adv = (ptr <= step) & (cum_arr[s_idx, l, nxt] <= level + 1e-9)
            if not adv.any():
                break
            ptr = ptr + adv
        ptrs[:, l] = ptr
        lo = cum_arr[s_idx, l, np.minimum(ptr, step + 1)]
        hi = cum_arr[s_idx, l, np.minimum(ptr + 1, step + 1)]
        return ptr, np.divide(level - lo, hi - lo, where=hi > lo,
                              out=np.zeros(len(s_idx)))


def simulate_fluid(config: NetworkConfig,
                   trees: Optional[Dict[str, object]] = None,
                   seeds: Sequence[int] = (0,),
                   duration_s: float = 10.0) -> List[RunResult]:
    """Run ``config`` on the fluid backend for every seed in ``seeds``.

    One array program advances the whole ``(seed, flow)`` grid; the
    returned :class:`~repro.core.results.RunResult` list is aligned with
    ``seeds`` and bitwise-independent of how seeds are batched.
    """
    trees = trees or {}
    refusal = fluid_refusal(config, tree_kinds=tuple(trees))
    if refusal is not None:
        raise ValueError(f"fluid backend cannot run this scenario: "
                         f"{refusal}")
    shp = S, N = len(seeds), config.num_senders
    base_oneway, base_rtt_l, flow_links, caps_bps, props, rev_prop = \
        _base_delays(config)
    base_rtt = np.asarray(base_rtt_l, dtype=np.float64)[None, :]
    dt = fluid_dt(config)
    n_steps = max(int(round(duration_s / dt)), 1)
    dt = duration_s / n_steps

    # Lag lines (in steps).  Delivery and ACK lags are floored at one
    # step: the loop reads them *before* the current step is written,
    # so a lag of at least 1 always reads a completed past step.  The
    # ACK lag (last hop, then the whole way back) is a flow's longest.
    last_hop = np.asarray([len(path) - 1 for path in flow_links])
    last_prop = [props[path[-1]] for path in flow_links]
    lag_del = np.asarray([max(int(round(p / dt)), 1) for p in last_prop])
    lag_ack = np.asarray([max(int(round((p + r) / dt)), 1)
                          for p, r in zip(last_prop, rev_prop)])
    K = int(lag_ack.max()) + 1

    links = _Links(config, S, n_steps, dt, K, flow_links, props, caps_bps)
    dep_hist, loss_hist = links.dep_hist, links.loss_hist
    drop_hist, mark_hist = links.drop_hist, links.mark_hist
    sent_hist = np.zeros((S, N, K))              # send rate, pkts/s
    qd_hist = np.zeros((S, N, K))                # path queueing delay, s
    toggles, on_time = _schedules(config, seeds, duration_s)
    ptr = np.zeros(shp, dtype=np.int64)

    kernels = fluid_kernels(config.sender_kinds, trees, shp)
    st = FluidStep()
    st.dt = dt
    st.w = np.empty(shp)
    for kernel in kernels:
        st.w[:, kernel.lanes] = kernel.initial_window
    st.pace_tau = np.zeros(shp)
    on = np.zeros(shp, dtype=bool)
    started = np.zeros(shp, dtype=bool)
    inflight = np.zeros(shp)                     # packets sent, un-ACKed
    recover_until = np.full(shp, -np.inf)        # loss refractory ends
    delivered_bytes = np.zeros(shp)
    sent_pkts = np.zeros(shp)
    arange_n = np.arange(N)

    for step in range(n_steps):
        st.t = t = step * dt
        # -- 1. workload toggles due at or before t --------------------
        while True:
            nxt = np.take_along_axis(toggles, ptr[..., None],
                                     axis=2)[..., 0]
            due = nxt <= t
            if not due.any():
                break
            turning_on = due & (ptr % 2 == 0)
            on = (on | turning_on) & ~(due & (ptr % 2 == 1))
            for kernel in kernels:
                kernel.start(st, turning_on & kernel.lanes)
            started |= turning_on
            ptr += due

        # -- 2. delivery and the ACK clock (lagged streams) ------------
        # All reads are from steps already written; windows react to
        # this step's ACK arrivals before this step's sends, exactly as
        # the event-driven sender transmits from inside the ACK handler.
        path_qd = links.queueing_delay(step)
        pos_now = step % K
        pos_del = (step - lag_del) % K
        delivered_bytes += dep_hist[:, arange_n, last_hop, pos_del] * dt
        pos_ack = (step - lag_ack) % K
        st.acks = acks = dep_hist[:, arange_n, last_hop, pos_ack] \
            * (dt / _PKT)
        inflight = np.maximum(inflight - acks, 0.0)
        # Dropped packets never produce ACKs; release them from the
        # window on the same lagged clock the packet transport's loss
        # detection runs on.
        inflight = np.maximum(
            inflight - drop_hist[:, arange_n, pos_ack], 0.0)
        st.sent_lag = sent_hist[:, arange_n, pos_ack]
        st.rtt_sample = base_rtt + qd_hist[:, arange_n, pos_ack]
        st.marked = (mark_hist[:, arange_n, pos_ack]
                     if mark_hist is not None else None)

        # -- 3. the kernels: loss, then marks and growth ---------------
        lost = loss_hist[:, arange_n, pos_ack] & started \
            & (t >= recover_until)
        if lost.any():
            for kernel in kernels:
                kernel.loss(st, lost & kernel.lanes)
            recover_until = np.where(lost, t + (base_rtt + path_qd),
                                     recover_until)
        st.acked = acked = started & (acks > 0.0)
        st.grow = acked & (t >= recover_until)
        for kernel in kernels:
            kernel.ack(st)
        st.w = w = np.clip(st.w, 1.0, MAX_WINDOW_PACKETS)

        # -- 4. send rates ---------------------------------------------
        # Window-limited sending, like the packet transport: whenever
        # fewer than ``w`` packets are in flight, the deficit goes out
        # immediately (subject to the pacing cap), so window jumps burst
        # exactly as the event-driven sender does; in steady state the
        # deficit refills at the ACK rate and sending self-clocks.
        pace_cap = np.where(st.pace_tau > 0.0,
                            1.0 / np.maximum(st.pace_tau, 1e-12), np.inf)
        deficit = np.maximum(w - inflight, 0.0)
        rate = np.where(on, np.minimum(deficit / dt, pace_cap), 0.0)
        sent_pkts += rate * dt
        inflight += rate * dt
        sent_hist[:, :, pos_now] = rate
        qd_hist[:, :, pos_now] = path_qd

        # -- 5. queues: arrivals, service, overflow, AQM ---------------
        links.serve(step, rate)

    # Collect per-seed results.
    util = links.link_out_bytes / (links.caps[None, :] * duration_s)
    qd_hops = np.divide(links.wait_sum, links.wt_pkts,
                        where=links.wt_pkts > 0.0,
                        out=np.zeros_like(links.wait_sum))
    qd_flow = qd_hops.sum(axis=2)       # unused hops contribute zero
    results: List[RunResult] = []
    for si, seed in enumerate(seeds):
        flows: List[FlowStats] = []
        for f, kind in enumerate(config.sender_kinds):
            delivered = int(round(delivered_bytes[si, f]))
            mean_delay = float(base_oneway[f] + qd_flow[si, f]) \
                if delivered > 0 else 0.0
            flows.append(FlowStats(
                flow_id=f, kind=kind,
                delivered_bytes=delivered,
                on_time_s=float(on_time[si, f]),
                mean_delay_s=mean_delay,
                base_delay_s=float(base_oneway[f]),
                base_rtt_s=float(base_rtt_l[f]),
                packets_delivered=int(round(delivered / _PKT)),
                packets_sent=int(round(sent_pkts[si, f])),
                retransmissions=0, timeouts=0,
                delta=config.deltas[f]))
        results.append(RunResult(
            flows=flows, seed=seed, duration_s=duration_s,
            bottleneck_drops=int(round(
                links.drop_bytes[si].sum() / _PKT)),
            bottleneck_utilization=float(util[si].max()),
            metadata={"backend": "fluid", "dt": dt}))
    return results


def _waterfill(avail: np.ndarray, cap_dt: float) -> np.ndarray:
    """Fair-share (sfq) service: each backlogged bucket gets an equal
    share; unused share is redistributed until the capacity or the
    backlog is exhausted."""
    out = np.zeros_like(avail)
    todo = avail.copy()
    remaining = np.full(avail.shape[0], cap_dt)
    for _ in range(avail.shape[1]):
        active = todo > 0.0
        n_act = active.sum(axis=1)
        live = (remaining > 1e-12) & (n_act > 0)
        if not live.any():
            break
        fair = np.divide(remaining, n_act, where=n_act > 0,
                         out=np.zeros_like(remaining))
        take = np.minimum(todo, fair[:, None]) * active
        out += take
        todo -= take
        remaining = remaining - take.sum(axis=1)
    return out
