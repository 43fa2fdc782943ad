"""Columnar round engine for the phased multi-source Bellman–Ford family.

:class:`~repro.congest.network.Simulator` runs one Python object per node
and pays Python for every message.  This engine runs *one round* at a
time instead: the round's messages are arrays ``(src, dst, source, dist,
broadcast id)``, a node's Algorithm 2 state is a set of rows, and the
three ledgers of the echo protocol are arrays too:

* per ``(node, source)`` entry — ``dist``, ``queued`` and the broadcast
  the queued update is based on (its *parent*; the sender and the quoted
  distance are that broadcast's ``u`` and ``dist``), reached through a
  dense ``node * n + source`` slot map;
* per broadcast — node, source, quoted dist, phase, parent broadcast and
  the count of neighbours that still owe it an ECHO (a broadcast *is* the
  ``(node, source, quoted dist)`` key the per-node ledger uses);
* per directed edge — a FIFO of the broadcasts whose ECHO is owed on it,
  and per node a FIFO of queued entries (a superseded slot keeps its
  place), both ring buffers (:class:`_Rings`).

It simulates **the same protocol** as the per-node programs of
:mod:`repro.tz.distributed` (``TZOracleProgram``, ``TZKnownSProgram``,
``TZEchoProgram``) under ``Simulator``: same sketches, same rounds,
messages, words, widest round, per-phase rows, wake-ups, queue maximum,
tree depth and the same RNG draw.  The ordering rules it reproduces:

* **Inbox order** — a node reads its mail in ascending sender id.
* **Relaxation** — an update is accepted iff it passes the node's
  threshold and beats the running distance, i.e. it is a strict record
  low of the segmented prefix-min over the node's inbox for that source.
* **Wake set** — a node is woken by mail, pending work or a due timer;
  wake-ups are ``|wake|`` per round plus ``n`` per all-node pass.
* **Echo FIFO** — each inbox message causes at most one owed ECHO (on
  reject, on supersede to the old parent, on settle to the parent), so a
  FIFO is ordered by ``(round, sender of the causing message)``.
* **Edge priority** — control before an owed ECHO on an edge; a node that
  sent either sends no data broadcast that round.
* **Phase advance** — data of the next phase (or START) advances a node
  before the rest of its inbox is read; the phase marker is node 0
  (oracle, known-S) or the leader ``n - 1`` (echo).
* **Silent rounds** — charged one by one, jumped in O(1) to the next
  timer.

The per-node programs stay the reference and are what the delayed and
faulty simulators run; ``tests/test_columnar_engine.py`` checks the two
against each other.  Control traffic (election, adopt, COMPLETE, START)
is a few messages per node per phase and stays a small Python loop.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Optional

import numpy as np

from repro.congest.metrics import RunMetrics
from repro.errors import ConfigError, ProtocolError, SimulationError
from repro.graphs.graph import Graph
from repro.rng import SeedLike, ensure_rng

#: words per message kind, as :func:`repro.words.payload_words` meters
#: the per-node payloads: data / ECHO ``(tag, phase, source, dist)``,
#: COMPLETE / START ``(tag, phase)``, election ``(tag, id, hops)``,
#: adopt ``(tag,)``
DATA_WORDS = ECHO_WORDS = 4
CONTROL_WORDS = 2
ELECT_WORDS = 3
ADOPT_WORDS = 1

COMPLETE, START = "tzc", "tzs"

#: cells of one dense ``(nodes, sources)`` gather when a phase is folded
_FOLD_CELLS = 1 << 19


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """``True`` where a run of equal (sorted) keys begins."""
    first = np.empty(keys.size, dtype=bool)
    if keys.size:
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _rank_in_run(first: np.ndarray) -> np.ndarray:
    """Position of each element inside its run."""
    idx = np.arange(first.size)
    return idx - np.maximum.accumulate(np.where(first, idx, 0))


class _Rings:
    """One FIFO of int64 values per row, as a ring buffer."""

    def __init__(self, rows: int, cap: int = 4):
        self.buf = np.zeros((rows, cap), dtype=np.int64)
        self.head = np.zeros(rows, dtype=np.int64)
        self.size = np.zeros(rows, dtype=np.int64)

    def push(self, rows: np.ndarray, vals: np.ndarray) -> None:
        """Append ``vals``; ``rows`` grouped, each group in FIFO order."""
        first = _run_starts(rows)
        slot = self.size[rows] + _rank_in_run(first)
        top = int(slot.max()) + 1
        if top > self.buf.shape[1]:
            self._grow(top)
        self.buf[rows, (self.head[rows] + slot) % self.buf.shape[1]] = vals
        last = np.append(first[1:], True)
        self.size[rows[last]] = slot[last] + 1

    def pop(self, rows: np.ndarray) -> np.ndarray:
        """Take the front of each (distinct, nonempty) row."""
        vals = self.buf[rows, self.head[rows] % self.buf.shape[1]]
        self.head[rows] += 1
        self.size[rows] -= 1
        return vals

    def _grow(self, need: int) -> None:
        cap = self.buf.shape[1]
        new = np.zeros((self.buf.shape[0], max(2 * cap, need)),
                       dtype=np.int64)
        idx = (self.head[:, None] + np.arange(cap)) % cap
        new[:, :cap] = np.take_along_axis(self.buf, idx, axis=1)
        self.buf = new
        self.head[:] = 0


class _Table:
    """Append-only columns; a row id is its index.  Doubled as needed."""

    def __init__(self, cap: int, **dtypes):
        self.n = 0
        self._dtypes = dtypes
        for name, dt in dtypes.items():
            setattr(self, name, np.zeros(cap, dtype=dt))

    def add(self, count: int) -> np.ndarray:
        """Reserve ``count`` rows; returns their ids."""
        start, end = self.n, self.n + count
        cap = getattr(self, next(iter(self._dtypes))).size
        if end > cap:
            cap = max(2 * cap, end)
            for name in self._dtypes:
                old = getattr(self, name)
                col = np.zeros(cap, dtype=old.dtype)
                col[:start] = old[:start]
                setattr(self, name, col)
        self.n = end
        return np.arange(start, end)


class PhasedBellmanFord:
    """One run of the distributed Thorup–Zwick build (paper Algorithm 2).

    Parameters
    ----------
    graph:
        The network.
    level:
        Each node's hierarchy level; the sources of phase ``i`` are the
        nodes of level ``i``.
    k:
        Number of phases (run top-down, ``k-1`` … ``0``).
    seed:
        Drawn from exactly as ``Simulator`` draws its per-node streams.
    mark_phases:
        Open one ``metrics`` phase row per phase, as the per-node
        programs' phase marker does.

    ``metrics`` is charged round by round.  Every message kind has a
    fixed size of at most ``DATA_WORDS``, within
    ``repro.words.DEFAULT_BANDWIDTH_WORDS``, so the word budget needs no
    per-message check.
    """

    def __init__(self, graph: Graph, level: np.ndarray, k: int,
                 seed: SeedLike = None, mark_phases: bool = True,
                 max_rounds: int = 5_000_000):
        n = self.n = graph.n
        # the per-node private streams the per-node programs never read
        ensure_rng(seed).integers(0, 2**63 - 1, size=n, dtype=np.int64)
        self.k = k
        self.metrics = RunMetrics()
        self.mark_phases = mark_phases
        self.max_rounds = max_rounds
        self.round = 0
        csr = graph.to_csr()
        self.indptr = csr.indptr.astype(np.int64)
        self.nbr = csr.indices.astype(np.int64)
        self.wt = csr.data.astype(np.float64)
        self.deg = np.diff(self.indptr)
        self.edge_src = np.repeat(np.arange(n), self.deg)
        self.edge_key = self.edge_src * n + self.nbr  # sorted
        self.level = np.asarray(level, dtype=np.int64)
        self.sources = [(self.level == i).nonzero()[0] for i in range(k)]
        self.phase = np.full(n, k, dtype=np.int64)
        self.thr_d = np.full(n, np.inf)
        self.thr_n = np.full(n, -1, dtype=np.int64)
        self.piv_d = np.full((n, k), np.inf)
        self.piv_n = np.full((n, k), -1, dtype=np.int64)
        self.max_q = np.zeros(n, dtype=np.int64)
        # entry 0 is the absent sentinel every empty slot points at
        self.slot = np.zeros(n * n, dtype=np.int32 if n * n < 2**31
                             else np.int64)
        self.ent = _Table(max(64, 4 * n), u=np.int64, s=np.int64,
                          dist=np.float64, queued=bool, pbid=np.int64)
        self.ent.add(1)
        self.ent.dist[0] = np.inf
        self.bc = _Table(max(64, 4 * n), u=np.int64, s=np.int64,
                         dist=np.float64, ph=np.int64, pbid=np.int64,
                         wait=np.int64)
        self.queue = _Rings(n)
        self.marker = 0
        self.echo = False
        self.tree_depth: Optional[int] = None

    # ------------------------------------------------------------------
    # cost accounting
    # ------------------------------------------------------------------
    def _tick(self, messages: int, words: int) -> None:
        """Open the next round, charging the mail it delivers."""
        if self.round >= self.max_rounds:
            raise SimulationError(
                f"protocol did not quiesce within {self.max_rounds} rounds "
                f"({messages} messages still in flight)")
        self.round += 1
        self.metrics.record_round(messages, words)

    def _idle_until(self, target: int) -> None:
        """Charge the silent rounds before ``target`` in one step."""
        gap = min(target - 1, self.max_rounds) - self.round
        if gap > 0:
            self.round += gap
            self.metrics.record_idle(gap)

    def _wake(self, pending: np.ndarray, *mail: np.ndarray,
              timer: bool = False) -> None:
        if timer:
            self.metrics.wakeups += self.n
            return
        woken = pending.copy()
        for dst in mail:
            woken[dst] = True
        self.metrics.wakeups += int(np.count_nonzero(woken))

    # ------------------------------------------------------------------
    # Algorithm 2, one round of every node at once
    # ------------------------------------------------------------------
    def _expand(self, bids: np.ndarray):
        """Deliver broadcasts ``bids`` (by ascending node) on every edge:
        ``(dst, src, bid, cand)`` with ``cand = dist + w(src, dst)``."""
        u = self.bc.u[bids]
        cnt = self.deg[u]
        ends = np.cumsum(cnt)
        edge = (np.repeat(self.indptr[u] - ends + cnt, cnt)
                + np.arange(int(ends[-1])))
        rep = np.repeat(bids, cnt)
        return (self.nbr[edge], self.edge_src[edge], rep,
                self.bc.dist[rep] + self.wt[edge])

    def _accept(self, dst, src, bid, cand):
        """Algorithm 2 lines 12-14 for a round's data mail.  Returns the
        owed ECHOs it causes as ``(debtor, creditor, bid, seq)``."""
        n, E = self.n, self.ent
        s = self.bc.s[bid]
        gk = dst * n + s
        order = np.argsort(gk * n + src)
        dst, src, bid, cand, s, gk = (a[order] for a in
                                      (dst, src, bid, cand, s, gk))
        e = self.slot[gk]
        td = self.thr_d[dst]
        ok = (cand < td) | ((cand == td) & (s < self.thr_n[dst]))
        better = ok & (cand < E.dist[e])
        first = _run_starts(gk)
        if not first.all():
            # several updates for one (node, source): only strict record
            # lows of the inbox-ordered prefix-min are accepted
            m = cand.size
            rank = np.empty(m, dtype=np.int64)
            rank[np.argsort(np.where(ok, cand, np.inf), kind="stable")] = \
                np.arange(m)
            key = rank - (np.cumsum(first) - 1) * m
            excl = np.empty(m, dtype=np.int64)
            excl[0] = m
            excl[1:] = np.minimum.accumulate(key)[:-1]
            excl[first] = m
            better &= key < excl
        acc = better.nonzero()[0]
        owes = []
        if self.echo:
            rej = (~better).nonzero()[0]
            owes.append((dst[rej], src[rej], bid[rej], src[rej]))
        if acc.size:
            fa = _run_starts(gk[acc])
            la = np.empty_like(fa)
            la[-1] = True
            la[:-1] = fa[1:]
            jf, jl = acc[fa], acc[la]
            ef = e[jf]
            new = (ef == 0).nonzero()[0]
            if new.size:
                # allocate in inbox order: a bunch lists its entries in
                # the order they were first accepted
                new = new[np.argsort(dst[jf[new]] * n + src[jf[new]])]
                ids = E.add(new.size)
                jn = jf[new]
                E.u[ids], E.s[ids] = dst[jn], s[jn]
                self.slot[gk[jn]] = ids
                ef[new] = ids
            was = E.queued[ef]
            if self.echo:
                nf = (~fa).nonzero()[0]
                prev = acc[nf - 1]
                owes.append((dst[acc[nf]], src[prev], bid[prev],
                             src[acc[nf]]))
                jw = jf[was]
                pb = E.pbid[ef[was]]
                has = pb >= 0
                owes.append((dst[jw[has]], self.bc.u[pb[has]], pb[has],
                             src[jw[has]]))
            fresh = (~was).nonzero()[0]
            if fresh.size:
                jq = jf[fresh]
                o = np.argsort(dst[jq] * n + src[jq])
                rows = dst[jq[o]]
                self.queue.push(rows, ef[fresh[o]])
                np.maximum.at(self.max_q, rows, self.queue.size[rows])
            E.dist[ef] = cand[jl]
            E.queued[ef] = True
            E.pbid[ef] = bid[jl]
        return owes

    def _serve(self, rows: np.ndarray) -> np.ndarray:
        """Serve one queue slot of each of ``rows`` (ascending): returns
        the new broadcasts' ids."""
        E, B = self.ent, self.bc
        e = self.queue.pop(rows)
        ids = B.add(rows.size)
        B.u[ids], B.s[ids], B.dist[ids] = rows, E.s[e], E.dist[e]
        B.ph[ids], B.pbid[ids] = self.phase[rows], E.pbid[e]
        B.wait[ids] = self.deg[rows]
        E.queued[e] = False
        return ids

    def _advance(self, rows: np.ndarray) -> None:
        """Finalize each node's phase (fold its pivot) and enter the next
        one, queueing the node itself if it is a source of it."""
        n, E, k = self.n, self.ent, self.k
        old = int(self.phase[rows[0]])
        if (self.phase[rows] != old).any():
            for p in np.unique(self.phase[rows]):
                self._advance(rows[self.phase[rows] == p])
            return
        if self.echo:
            unsettled = rows[(self.out[rows] > 0) | (self.owed_n[rows] > 0)]
            if unsettled.size:
                raise ProtocolError(
                    f"node {int(unsettled.min())}: advancing out of phase "
                    f"{old} with unsettled echoes — termination detection "
                    f"bug")
        if old < k:
            srcs = self.sources[old]
            step = max(1, _FOLD_CELLS // max(1, srcs.size))
            for a in range(0, rows.size if srcs.size else 0, step):
                r = rows[a:a + step]
                d = E.dist[self.slot[r[:, None] * n + srcs]]
                j = d.argmin(axis=1)
                bd, bn = d[np.arange(r.size), j], srcs[j]
                td = self.thr_d[r]
                win = (bd < td) | ((bd == td) & (bn < self.thr_n[r]))
                self.thr_d[r[win]], self.thr_n[r[win]] = bd[win], bn[win]
            self.piv_d[rows, old] = self.thr_d[rows]
            self.piv_n[rows, old] = self.thr_n[rows]
        new = old - 1
        self.phase[rows] = new
        self.queue.size[rows] = 0
        if self.mark_phases and new >= 0 and (rows == self.marker).any():
            self.metrics.begin_phase(f"phase-{new}")
        if new < 0:
            return
        src = rows[self.level[rows] == new]
        if src.size:
            ids = E.add(src.size)
            E.u[ids], E.s[ids], E.dist[ids] = src, src, 0.0
            E.queued[ids], E.pbid[ids] = True, -1
            self.slot[src * n + src] = ids
            self.queue.push(src, ids)
            self.max_q[src] = np.maximum(self.max_q[src],
                                         self.queue.size[src])
        if self.echo:
            self.complete_sent[rows] = False
            self.self_complete[rows] = self.level[rows] != new

    def _everyone(self) -> np.ndarray:
        self.metrics.wakeups += self.n
        return np.arange(self.n)

    # ------------------------------------------------------------------
    # oracle and known-S synchronization
    # ------------------------------------------------------------------
    def run_oracle(self) -> None:
        """Phases advance at global quiescence (``TZOracleProgram``)."""
        self.marker = 0
        self._advance(self._everyone())
        bids = np.empty(0, dtype=np.int64)
        while True:
            queued = self.queue.size > 0
            msgs = int(self.deg[self.bc.u[bids]].sum())
            if not msgs and not queued.any():
                if (self.phase < 0).all():
                    return
                self._advance(self._everyone())
                continue
            self._tick(msgs, DATA_WORDS * msgs)
            if msgs:
                dst, src, bid, cand = self._expand(bids)
                self._wake(queued, dst)
                self._accept(dst, src, bid, cand)
            else:
                self._wake(queued)
            bids = self._serve((self.queue.size > 0).nonzero()[0])

    def run_known(self, budgets: list[int]) -> None:
        """Fixed per-phase round budgets (``TZKnownSProgram``)."""
        if len(budgets) != self.k:
            raise ConfigError("need one budget per phase")
        self.marker = 0
        self._advance(self._everyone())
        phase_end = budgets[self.k - 1]
        boundary: Optional[int] = max(phase_end, 0) + 1
        bids = np.empty(0, dtype=np.int64)
        while True:
            queued = self.queue.size > 0
            msgs = int(self.deg[self.bc.u[bids]].sum())
            if not msgs and not queued.any():
                if boundary is None:
                    return
                self._idle_until(boundary)
            self._tick(msgs, DATA_WORDS * msgs)
            if self.round == boundary:
                self._advance(self._everyone())
                new = int(self.phase[0])
                if msgs:
                    self._straggler(bids, new)
                if new < 0:
                    boundary = None
                else:
                    phase_end += budgets[new]
                    boundary = max(phase_end, self.round) + 1
            elif msgs:
                dst, src, bid, cand = self._expand(bids)
                self._wake(queued, dst)
                self._accept(dst, src, bid, cand)
            else:
                self._wake(queued)
            bids = self._serve((self.queue.size > 0).nonzero()[0])

    def _straggler(self, bids: np.ndarray, phase: int) -> None:
        """Mail across a phase boundary: raise what the lowest recipient
        raises first."""
        dst = int(self._expand(bids)[0].min())
        if phase < 0:
            raise ProtocolError(
                f"node {dst}: message after protocol end — "
                f"phase budgets too small")
        old = phase + 1
        raise ProtocolError(
            f"node {dst}: phase-{old} data in phase {phase} — budget for "
            f"phase {old} too small")

    # ------------------------------------------------------------------
    # echo synchronization (paper Section 3.3)
    # ------------------------------------------------------------------
    def run_echo(self) -> None:
        """Election, then phases ended by ECHO / COMPLETE / START
        (``TZEchoProgram`` with its default horizon)."""
        n, k = self.n, self.k
        self.echo = True
        self.marker = n - 1
        self.out = np.zeros(n, dtype=np.int64)      # unsettled broadcasts
        self.owed_n = np.zeros(n, dtype=np.int64)   # ECHOs owed, per node
        self.owed = _Rings(self.edge_key.size)      # per directed edge
        self.self_complete = np.zeros(n, dtype=bool)
        self.complete_sent = np.zeros(n, dtype=bool)
        self.reported = np.zeros((n, k), dtype=np.int64)
        self.forwarded = np.zeros((n, k + 1), dtype=bool)
        self.ctrl: dict[int, dict[int, deque]] = {}
        self._elect()
        self._advance(np.arange(n))
        self._complete()
        bids, echoes, ctrl = self._send()
        while True:
            pending = self._pending()
            msgs = (int(self.deg[self.bc.u[bids]].sum()) + echoes[0].size
                    + len(ctrl))
            if not msgs and not pending.any():
                if (self.phase < 0).all():
                    return
                raise SimulationError(
                    "programs keep requesting quiescence callbacks "
                    "without ever finishing or sending — livelock")
            self._tick(msgs, DATA_WORDS * (msgs - len(ctrl))
                       + CONTROL_WORDS * len(ctrl))
            data = self._expand(bids) if msgs > echoes[0].size + len(ctrl) \
                else None
            self._wake(pending, echoes[1],
                       np.array([c[1] for c in ctrl], dtype=np.int64),
                       *(data[:1] if data else ()))
            self._receive(data, echoes, ctrl)
            self._complete()
            bids, echoes, ctrl = self._send()

    def _ready(self) -> np.ndarray:
        """``_complete_ready`` of every node."""
        ph = self.phase
        return ((ph >= 0) & ~self.complete_sent & self.self_complete
                & (self.reported[np.arange(self.n), np.maximum(ph, 0)]
                   == self.nchild))

    def _pending(self) -> np.ndarray:
        pending = (self.queue.size > 0) | (self.owed_n > 0) | self._ready()
        for u in self.ctrl:
            pending[u] = True
        return pending

    def _push_control(self, u: int, v: int, payload: tuple) -> None:
        self.ctrl.setdefault(u, {}).setdefault(v, deque()).append(payload)

    def _forward_start(self, u: int, ph: int) -> None:
        if self.forwarded[u, ph + 1]:
            return
        self.forwarded[u, ph + 1] = True
        for c in self.children[u]:
            self._push_control(u, c, (START, ph))

    def _owe(self, owes) -> None:
        """Append owed ECHOs to their edges' FIFOs in ``seq`` order."""
        owes = [o for o in owes if o[0].size]
        if not owes:
            return
        debtor, creditor, bid, seq = (np.concatenate(c) for c in zip(*owes))
        edge = np.searchsorted(self.edge_key, debtor * self.n + creditor)
        o = np.argsort(edge * self.n + seq)
        self.owed.push(edge[o], bid[o])
        self.owed_n += np.bincount(debtor, minlength=self.n)

    def _settle(self, bids: np.ndarray, seq: np.ndarray):
        """All ECHOs of ``bids`` are in: discharge to the parent, or mark
        the node's own source complete."""
        B = self.bc
        u, pb = B.u[bids], B.pbid[bids]
        self.out -= np.bincount(u, minlength=self.n)
        root = pb < 0
        self.self_complete[u[root]] = True
        up = ~root
        return (u[up], B.u[pb[up]], pb[up], seq[up])

    def _receive(self, data, echoes, ctrl) -> None:
        """Step 1 of ``TZEchoProgram.on_round`` for every node: absorb
        the round's mail."""
        n, B = self.n, self.bc
        p0 = self.phase.copy()
        # phase advance comes first: next-phase data or START
        trig = [np.array([d for (_, d, kind, ph) in ctrl
                          if kind == START and ph == p0[d] - 1],
                         dtype=np.int64)]
        if data is not None:
            dst, _, bid, _ = data
            trig.append(dst[B.ph[bid] == p0[dst] - 1])
        adv = np.unique(np.concatenate(trig))
        if adv.size:
            self._advance(adv)
        for w, u, kind, ph in sorted(ctrl, key=lambda c: (c[1], c[0])):
            if kind == START:
                if w != self.parent[u]:
                    raise ProtocolError(f"node {u}: START from non-parent {w}")
                if ph < p0[u] - 1:
                    raise ProtocolError(
                        f"node {u}: START({ph}) while in phase {p0[u]} "
                        f"skipped a phase — FIFO control ordering violated")
                self._forward_start(u, ph)
            else:
                if w not in self.child_set[u]:
                    raise ProtocolError(
                        f"node {u}: COMPLETE from non-child {w}")
                self.reported[u, ph] += 1
        owes = []
        esrc, edst, ebid = echoes
        if ebid.size:
            bad = B.u[ebid] != edst
            if bad.any():
                j = int(bad.nonzero()[0][np.argmin(edst[bad])])
                self._unexpected(int(edst[j]), int(esrc[j]), int(ebid[j]))
            o = np.argsort(ebid * n + esrc)
            ebid, esrc = ebid[o], esrc[o]
            first = _run_starts(ebid)
            starts = first.nonzero()[0]
            last = np.append(starts[1:], ebid.size) - 1
            ub = ebid[starts]
            left = B.wait[ub] - (last - starts + 1)
            if (left < 0).any():
                j = int((left < 0).nonzero()[0][0])
                self._unexpected(int(B.u[ub[j]]), int(esrc[last[j]]),
                                 int(ub[j]))
            B.wait[ub] = left
            done = left == 0
            owes.append(self._settle(ub[done], esrc[last[done]]))
        if data is not None:
            dst, src, bid, cand = data
            wrong = B.ph[bid] != self.phase[dst]
            if wrong.any():
                j = int(wrong.nonzero()[0][np.argmin(dst[wrong])])
                u = int(dst[j])
                raise ProtocolError(
                    f"node {u}: phase-{int(B.ph[bid[j]])} data while in "
                    f"phase {int(self.phase[u])}")
            owes.extend(self._accept(dst, src, bid, cand))
        self._owe(owes)

    def _complete(self) -> None:
        """Step 2: COMPLETE convergecast; the leader releases the next
        phase."""
        for u in self._ready().nonzero()[0].tolist():
            self.complete_sent[u] = True
            ph = int(self.phase[u])
            if self.parent[u] >= 0:
                self._push_control(u, int(self.parent[u]), (COMPLETE, ph))
            else:
                self._forward_start(u, ph - 1)
                self._advance(np.array([u]))

    def _unexpected(self, u: int, w: int, bid: int) -> None:
        key = (int(self.bc.s[bid]), float(self.bc.dist[bid]))
        raise ProtocolError(f"node {u}: unexpected echo {key} from {w}")

    def _send(self):
        """Step 3 for every node: control, else an owed ECHO, on each edge
        that has one; a data broadcast from nodes that sent neither."""
        n = self.n
        ctrl = []
        blocked = []
        busy = self.owed_n > 0
        for u, edges in self.ctrl.items():
            busy[u] = True
            for v, q in edges.items():
                kind, ph = q.popleft()
                ctrl.append((u, v, kind, ph))
                blocked.append(u * n + v)
        self.ctrl = {u: left for u, edges in self.ctrl.items()
                     if (left := {v: q for v, q in edges.items() if q})}
        owing = self.owed.size > 0
        if blocked:
            owing[np.searchsorted(self.edge_key, blocked)] = False
        edge = owing.nonzero()[0]
        if edge.size:
            ebid = self.owed.pop(edge)
            esrc = self.edge_src[edge]
            self.owed_n -= np.bincount(esrc, minlength=n)
            echoes = (esrc, self.nbr[edge], ebid)
        else:
            echoes = (np.empty(0, dtype=np.int64),) * 3
        rows = ((self.queue.size > 0) & ~busy).nonzero()[0]
        bids = self._serve(rows)
        if bids.size:
            self.out += np.bincount(rows, minlength=n)
            lone = bids[self.bc.wait[bids] == 0]
            if lone.size:  # a broadcast to no neighbour settles at once
                self._owe([self._settle(lone, np.zeros_like(lone))])
        return bids, echoes, ctrl

    def _elect(self) -> None:
        """Max-ID flooding election + adopt (``BFSTreeProgram`` with
        horizon ``n + 1`` and one settle round), ending with every node
        entering the run stage in round ``n + 2``."""
        n = self.n
        horizon = n + 1
        best = np.arange(n)
        hops = np.zeros(n, dtype=np.int64)
        parent = np.full(n, -1, dtype=np.int64)
        self.metrics.wakeups += n
        flood = np.arange(n)                 # round 0: everyone announces
        adopt = np.empty(0, dtype=np.int64)  # senders of adopt
        none = np.zeros(n, dtype=bool)
        while True:
            fmsgs = int(self.deg[flood].sum())
            msgs = fmsgs + adopt.size
            if not msgs:
                self._idle_until(horizon if self.round < horizon
                                 else horizon + 1)
            self._tick(msgs, ELECT_WORDS * fmsgs + ADOPT_WORDS * adopt.size)
            r = self.round
            timer = r in (horizon, horizon + 1)
            improved = np.empty(0, dtype=np.int64)
            if flood.size:
                cnt = self.deg[flood]
                ends = np.cumsum(cnt)
                edge = (np.repeat(self.indptr[flood] - ends + cnt, cnt)
                        + np.arange(int(ends[-1])))
                dst, src = self.nbr[edge], self.edge_src[edge]
                cid, ch = best[src], hops[src] + 1
                self._wake(none, dst, timer=timer)
                o = np.lexsort((src, ch, -cid, dst))
                o = o[_run_starts(dst[o])]
                d, c, h, w = dst[o], cid[o], ch[o], src[o]
                up = (c > best[d]) | ((c == best[d]) & (h < hops[d]))
                improved = d[up]
                best[improved], hops[improved] = c[up], h[up]
                parent[improved] = w[up]
            else:
                self._wake(none, parent[adopt], timer=timer)
            if r == horizon + 1:
                break
            if r == horizon:
                adopt = (parent >= 0).nonzero()[0]
                clash = np.intersect1d(improved, adopt)
                if clash.size:
                    u = int(clash[0])
                    raise ProtocolError(
                        f"node {u}: second message on edge to "
                        f"{int(parent[u])} in round {r} violates the "
                        f"one-message-per-edge CONGEST rule")
            else:
                adopt = np.empty(0, dtype=np.int64)
            flood = improved
        kids: list[list[int]] = [[] for _ in range(n)]
        for u in adopt.tolist():
            kids[int(parent[u])].append(u)
        self.parent = parent
        self.children = [tuple(sorted(c)) for c in kids]
        self.child_set = [set(c) for c in kids]
        self.nchild = np.array([len(c) for c in kids], dtype=np.int64)
        self.tree_depth = int(hops.max())

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def run(self, sync: str, budgets: Optional[list[int]] = None) -> None:
        started = time.perf_counter()
        try:
            if sync == "oracle":
                self.run_oracle()
            elif sync == "known_smax":
                self.run_known(budgets)
            else:
                self.run_echo()
        finally:
            self.metrics.wall_s += time.perf_counter() - started

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every accepted ``(node, source, dist)``, grouped by node, each
        node's in the order its engines first accepted them."""
        E = self.ent
        o = np.argsort(E.u[1:E.n], kind="stable") + 1
        return E.u[o], E.s[o], E.dist[o]
