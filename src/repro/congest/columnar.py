"""Columnar round engine for the phased multi-source Bellman–Ford family.

:class:`~repro.congest.network.Simulator` runs one Python object per node
and pays Python for every message.  This engine runs *one round* at a
time instead: the round's messages are arrays ``(dst, src, broadcast id,
dist, source, reverse edge)``, a node's Algorithm 2 state is a set of
rows, and the three ledgers of the echo protocol are arrays too:

* per ``(node, source)`` entry — ``dist``, ``queued`` and the broadcast
  the queued update is based on (its *parent*; the sender and the quoted
  distance are that broadcast's ``u`` and ``dist``) with the edge back to
  it, reached through a dense ``node * n + source`` slot map;
* per broadcast — node, source, quoted dist, parent broadcast and edge,
  and the count of neighbours that still owe it an ECHO (a broadcast *is*
  the ``(node, source, quoted dist)`` key the per-node ledger uses);
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
  low of the segmented prefix-min over the node's inbox for that source
  (an update that does not beat the entry cannot block one that does, so
  only those that beat it are sorted).
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
against each other.  A round costs in proportion to its mail: a step
with no input (no ECHO, no control, no node whose COMPLETE may be due,
nodes all in one phase) does not run.
"""

from __future__ import annotations

import time
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

#: cells of one dense ``(nodes, sources)`` gather when a phase is folded
_FOLD_CELLS = 1 << 19


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """``True`` where a run of equal (sorted) keys begins."""
    first = np.empty(keys.size, dtype=bool)
    if keys.size:
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _spans(start: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """The runs ``start[i] .. start[i] + cnt[i] - 1``, concatenated."""
    ends = cnt.cumsum()
    return ((start - ends + cnt).repeat(cnt)
            + np.arange(int(ends[-1]) if ends.size else 0))


class _Rings:
    """One FIFO of int64 values per row, as a ring buffer whose width is a
    power of two: absolute ``head`` / ``tail`` positions wrap with a mask."""

    def __init__(self, rows: int, cap: int = 4):
        self.buf = np.zeros((rows, cap), dtype=np.int64)
        self.mask = cap - 1
        self.head = np.zeros(rows, dtype=np.int64)
        self.tail = np.zeros(rows, dtype=np.int64)

    def nonempty(self) -> np.ndarray:
        return self.tail != self.head

    def push(self, rows: np.ndarray, vals: np.ndarray) -> int:
        """Append ``vals``; ``rows`` ascending, each row's in FIFO order.
        Returns the longest FIFO it leaves."""
        pos = self.tail[rows]
        if np.count_nonzero(rows[1:] == rows[:-1]):
            idx = np.arange(rows.size)
            first = _run_starts(rows)
            pos += idx - np.maximum.accumulate(np.where(first, idx, 0))
            np.add.at(self.tail, rows, 1)
        else:
            self.tail[rows] = pos + 1
        top = int((pos - self.head[rows]).max()) + 1
        if top > self.mask + 1:
            self._grow(top)
        self.buf[rows, pos & self.mask] = vals
        return top

    def pop(self, rows: np.ndarray) -> np.ndarray:
        """Take the front of each (distinct, nonempty) row."""
        head = self.head[rows]
        self.head[rows] = head + 1
        return self.buf[rows, head & self.mask]

    def _grow(self, need: int) -> None:
        cap = new = self.mask + 1
        while new < need:
            new *= 2
        rows = np.arange(self.buf.shape[0])[:, None]
        pos = self.head[:, None] + np.arange(cap)
        buf = np.zeros((rows.size, new), dtype=np.int64)
        buf[rows, pos & (new - 1)] = self.buf[rows, pos & self.mask]
        self.buf, self.mask = buf, new - 1


class _Table:
    """Append-only columns; a row id is its index.  Doubled as needed."""

    def __init__(self, cap: int, **dtypes):
        self.n = 0
        self._dtypes = dtypes
        for name, dt in dtypes.items():
            setattr(self, name, np.zeros(cap, dtype=dt))

    def add(self, count: int) -> slice:
        """Reserve ``count`` rows; returns their ids as a slice."""
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
        return slice(start, end)


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
        self.isolated = not self.deg.all()
        self.edge_src = np.repeat(np.arange(n), self.deg)
        self.edge_key = self.edge_src * n + self.nbr  # sorted
        # each half-edge's reverse: the edge an ECHO goes back on
        self.rev = self.edge_key.searchsorted(self.nbr * n + self.edge_src)
        self.level = np.asarray(level, dtype=np.int64)
        self.sources = [(self.level == i).nonzero()[0] for i in range(k)]
        self.phase = np.full(n, k, dtype=np.int64)
        self.thr_d = np.full(n, np.inf)
        self.thr_n = np.full(n, -1, dtype=np.int64)
        self.piv_d = np.full((n, k), np.inf)
        self.piv_n = np.full((n, k), -1, dtype=np.int64)
        self.max_q = 0
        # entry 0 is the absent sentinel every empty slot points at
        self.slot = np.zeros(n * n, dtype=np.int32 if n * n < 2**31
                             else np.int64)
        self.ent = _Table(max(64, 4 * n), u=np.int64, s=np.int64,
                          dist=np.float64, queued=bool, pbid=np.int64,
                          pedge=np.int64)
        self.ent.add(1)
        self.ent.dist[0] = np.inf
        self.bc = _Table(max(64, 4 * n), u=np.int64, s=np.int64,
                         dist=np.float64, pbid=np.int64, pedge=np.int64,
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

    def _wake(self, woken: np.ndarray, *mail, timer: bool = False) -> None:
        """Charge the nodes flagged in ``woken`` (updated in place) and
        every recipient in ``mail``, or everyone on a timer."""
        if timer:
            self.metrics.wakeups += self.n
            return
        for dst in mail:
            woken[dst] = True
        self.metrics.wakeups += int(np.count_nonzero(woken))

    # ------------------------------------------------------------------
    # Algorithm 2, one round of every node at once
    # ------------------------------------------------------------------
    def _serve(self, rows: np.ndarray):
        """Serve one queue slot of each of ``rows`` (ascending) and
        broadcast it on every edge.  Returns the mail by sender, ``(dst,
        src, bid, cand, source, back)`` with ``cand = dist + w(src, dst)``
        and ``back`` the edge ``dst -> src``, or ``None`` if no message
        leaves."""
        if not rows.size:
            return None
        E, B = self.ent, self.bc
        e = self.queue.pop(rows)
        ids = B.add(rows.size)
        s, dist, cnt = E.s[e], E.dist[e], self.deg[rows]
        B.u[ids], B.s[ids], B.dist[ids], B.wait[ids] = rows, s, dist, cnt
        B.pbid[ids], B.pedge[ids] = E.pbid[e], E.pedge[e]
        E.queued[e] = False
        bids = np.arange(ids.start, ids.stop)
        if self.echo and self.isolated:
            # a broadcast to no neighbour settles at once
            lone = bids[cnt == 0]
            self._owe([self._settle(lone, np.zeros_like(lone))])
        edge = _spans(self.indptr[rows], cnt)
        if not edge.size:
            return None
        return (self.nbr[edge], self.edge_src[edge], bids.repeat(cnt),
                dist.repeat(cnt) + self.wt[edge], s.repeat(cnt),
                self.rev[edge])

    def _accept(self, dst, src, bid, cand, s, back):
        """Algorithm 2 lines 12-14 for a round's data mail.  In echo mode
        returns the ECHOs it makes owed, ``(edge, bid, seq)``: each message
        causes at most one, and its ``seq`` is the message's sender (a
        rejected update owes its own ECHO back; an accepted one, the ECHO
        of the update it supersedes, written over ``bid`` and ``back``)."""
        n, E = self.n, self.ent
        gk = dst * n + s
        e = self.slot[gk]
        td = self.thr_d[dst]
        ok = cand < td
        tie = cand == td
        if np.count_nonzero(tie):
            ok |= tie & (s < self.thr_n[dst])
        better = cand < E.dist[e]
        better &= ok
        acc = better.nonzero()[0]
        if acc.size:
            # the updates that beat their entry, by (node, source, sender)
            acc = acc[(gk[acc] * n + src[acc]).argsort()]
            fa = _run_starts(gk[acc])
            if np.count_nonzero(fa) < acc.size:
                # several updates for one (node, source) beat its entry:
                # only strict record lows in inbox order are accepted
                m = acc.size
                rank = np.empty(m, dtype=np.int64)
                rank[cand[acc].argsort(kind="stable")] = np.arange(m)
                key = rank - np.add.accumulate(fa, dtype=np.int64) * m
                low = np.minimum.accumulate(key)
                keep = fa.copy()
                keep[1:] |= key[1:] < low[:-1]
                acc, fa = acc[keep], fa[keep]
            la = np.empty(acc.size, dtype=bool)
            la[-1] = True
            la[:-1] = fa[1:]
            # one row per accepting (node, source), by (node, sender of its
            # first accepted update): a bunch lists its entries, and a
            # queue takes them, in the order they were first accepted
            jf, jl = acc[fa], acc[la]
            o = back[jf].argsort()
            jf, jl = jf[o], jl[o]
            ef = e[jf]
            new = (ef == 0).nonzero()[0]
            if new.size:
                ids = E.add(new.size)
                jn = jf[new]
                E.u[ids], E.s[ids] = dst[jn], s[jn]
                ef[new] = np.arange(ids.start, ids.stop)
                self.slot[gk[jn]] = ef[new]
            was = E.queued[ef]
            fresh = (~was).nonzero()[0]
            if fresh.size:
                self.max_q = max(self.max_q, self.queue.push(dst[jf[fresh]],
                                                             ef[fresh]))
            if self.echo:
                # a queued update's parent is owed its ECHO once superseded
                old_e = np.where(was, E.pedge[ef], -1)
                old_b = E.pbid[ef]
                E.pedge[ef] = back[jl]
            E.dist[ef] = cand[jl]
            E.queued[ef] = True
            E.pbid[ef] = bid[jl]
            if self.echo:
                # each later accepted update supersedes the one before it
                b_acc, e_acc = bid[acc], back[acc]
                bid[acc[1:]], back[acc[1:]] = b_acc[:-1], e_acc[:-1]
                bid[jf], back[jf] = old_b, old_e
        if not self.echo:
            return None
        owes = back >= 0
        return back[owes], bid[owes], src[owes]

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
            B = self.bc
            live = self.owed_n > 0  # or a broadcast still awaiting ECHOs
            live[B.u[:B.n][B.wait[:B.n] > 0]] = True
            unsettled = rows[live[rows]]
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
        self.queue.head[rows] = self.queue.tail[rows]
        if self.echo:
            self.mixed = bool(self.phase.min() != self.phase.max())
            self.complete_sent[rows] = False
            self.self_complete[rows] = self.level[rows] != new
            self.due[rows] = True
        if self.mark_phases and new >= 0 and (rows == self.marker).any():
            self.metrics.begin_phase(f"phase-{new}")
        if new < 0:
            return
        src = rows[self.level[rows] == new]
        if src.size:
            ids = E.add(src.size)
            E.u[ids], E.s[ids], E.dist[ids] = src, src, 0.0
            E.queued[ids], E.pbid[ids], E.pedge[ids] = True, -1, -1
            ids = np.arange(ids.start, ids.stop)
            self.slot[src * n + src] = ids
            self.max_q = max(self.max_q, self.queue.push(src, ids))

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
        data = None
        while True:
            queued = self.queue.nonempty()
            if data is None and not np.count_nonzero(queued):
                if (self.phase < 0).all():
                    return
                self._advance(self._everyone())
                continue
            msgs = data[0].size if data is not None else 0
            self._tick(msgs, DATA_WORDS * msgs)
            if msgs:
                self._wake(queued, data[0])
                self._accept(*data)
            else:
                self._wake(queued)
            data = self._serve(self.queue.nonempty().nonzero()[0])

    def run_known(self, budgets: list[int]) -> None:
        """Fixed per-phase round budgets (``TZKnownSProgram``)."""
        if len(budgets) != self.k:
            raise ConfigError("need one budget per phase")
        self.marker = 0
        self._advance(self._everyone())
        phase_end = budgets[self.k - 1]
        boundary: Optional[int] = max(phase_end, 0) + 1
        data = None
        while True:
            queued = self.queue.nonempty()
            if data is None and not np.count_nonzero(queued):
                if boundary is None:
                    return
                self._idle_until(boundary)
            msgs = data[0].size if data is not None else 0
            self._tick(msgs, DATA_WORDS * msgs)
            if self.round == boundary:
                self._advance(self._everyone())
                new = int(self.phase[0])
                if msgs:
                    self._straggler(data, new)
                if new < 0:
                    boundary = None
                else:
                    phase_end += budgets[new]
                    boundary = max(phase_end, self.round) + 1
            elif msgs:
                self._wake(queued, data[0])
                self._accept(*data)
            else:
                self._wake(queued)
            data = self._serve(self.queue.nonempty().nonzero()[0])

    def _straggler(self, data, phase: int) -> None:
        """Mail across a phase boundary: raise what the lowest recipient
        raises first."""
        dst = int(data[0].min())
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
        self.owed_n = np.zeros(n, dtype=np.int64)   # ECHOs owed, per node
        self.nowed = 0                              # ... and in all
        self.owed = _Rings(self.edge_key.size)      # per directed edge
        self.self_complete = np.zeros(n, dtype=bool)
        self.complete_sent = np.zeros(n, dtype=bool)
        self.reported = np.zeros((n, k), dtype=np.int64)
        self.forwarded = np.zeros((n, k + 1), dtype=bool)
        # control queued this round, ``(sender, receiver, phase, is START)``
        # arrays: a node queues at most one per edge per round, and it
        # leaves in the next send (control goes first on its edge)
        self.ctrl: list = []
        self.due = np.zeros(n, dtype=bool)  # COMPLETE may have fallen due
        self.mixed = False                  # nodes in two phases
        self._elect()
        self._advance(np.arange(n))
        self._complete()
        data, echoes, ctrl = self._send()
        while True:
            pending = self._pending()
            nd = data[0].size if data is not None else 0
            ne = echoes[0].size if echoes is not None else 0
            nc = ctrl[0].size if ctrl is not None else 0
            msgs = nd + ne + nc
            if not msgs and not np.count_nonzero(pending):
                if (self.phase < 0).all():
                    return
                raise SimulationError(
                    "programs keep requesting quiescence callbacks "
                    "without ever finishing or sending — livelock")
            self._tick(msgs, DATA_WORDS * (nd + ne) + CONTROL_WORDS * nc)
            if data is not None:
                pending[data[0]] = True
            if echoes is not None:
                pending[echoes[1]] = True
            if ctrl is not None:
                pending[ctrl[1]] = True
            self._wake(pending)
            self._receive(data, echoes, ctrl)
            self._complete()
            data, echoes, ctrl = self._send()

    def _ready(self, nodes: np.ndarray) -> np.ndarray:
        """The ``nodes`` whose ``_complete_ready`` holds."""
        ph = self.phase[nodes]
        return nodes[(ph >= 0) & ~self.complete_sent[nodes]
                     & self.self_complete[nodes]
                     & (self.reported[nodes, np.maximum(ph, 0)]
                        == self.nchild[nodes])]

    def _pending(self) -> np.ndarray:
        pending = self.queue.nonempty()
        if self.nowed:
            pending |= self.owed_n > 0
        due = self.due.nonzero()[0]
        if due.size:
            pending[self._ready(due)] = True
        return pending

    def _forward_start(self, u: np.ndarray, ph: np.ndarray) -> None:
        """Queue START(``ph``) from each ``u`` to its children, once."""
        go = ~self.forwarded[u, ph + 1]
        u, ph = u[go], ph[go]
        self.forwarded[u, ph + 1] = True
        cnt = self.nchild[u]
        kid = self.kids[_spans(self.kids_at[u], cnt)]
        if kid.size:
            self.ctrl.append((u.repeat(cnt), kid, ph.repeat(cnt),
                              np.ones(kid.size, dtype=bool)))

    def _owe(self, owes) -> None:
        """Append owed ECHOs ``(edge, bid, seq)`` to their edges' FIFOs in
        ``seq`` order."""
        owes = [o for o in owes if o[0].size]
        if not owes:
            return
        edge, bid, seq = (owes[0] if len(owes) == 1 else
                          [np.concatenate(c) for c in zip(*owes)])
        o = (edge * self.n + seq).argsort()
        edge = edge[o]
        self.owed.push(edge, bid[o])
        self.owed_n += np.bincount(self.edge_src[edge], minlength=self.n)
        self.nowed += edge.size

    def _settle(self, bids: np.ndarray, seq: np.ndarray):
        """All ECHOs of ``bids`` are in: discharge to the parent, or mark
        the node's own source complete."""
        B = self.bc
        pb = B.pbid[bids]
        root = pb < 0
        if np.count_nonzero(root):
            u = B.u[bids[root]]
            self.self_complete[u] = True
            self.due[u] = True
        up = ~root
        return B.pedge[bids[up]], pb[up], seq[up]

    def _receive(self, data, echoes, ctrl) -> None:
        """Step 1 of ``TZEchoProgram.on_round`` for every node: absorb
        the round's mail."""
        n, B = self.n, self.bc
        p0, check = self.phase, self.mixed
        start = ctrl is not None and np.count_nonzero(ctrl[3])
        if check or start:
            # phase advance comes first: next-phase data or START (data is
            # tagged with its sender's phase, which no send changes)
            p0 = p0.copy()
            adv = np.zeros(n, dtype=bool)
            if start:
                _, u, ph, st = ctrl
                adv[u[st & (ph == p0[u] - 1)]] = True
            if data is not None and check:
                dst, src = data[0], data[1]
                adv[dst[p0[src] == p0[dst] - 1]] = True
            adv = adv.nonzero()[0]
            if adv.size:
                self._advance(adv)
                check = True
        if ctrl is not None:
            self._control(*ctrl, p0, start)
        owes = []
        if echoes is not None:
            esrc, edst, ebid = echoes
            bad = B.u[ebid] != edst
            if np.count_nonzero(bad):
                j = int(bad.nonzero()[0][np.argmin(edst[bad])])
                self._unexpected(int(edst[j]), int(esrc[j]), int(ebid[j]))
            np.subtract.at(B.wait, ebid, 1)
            left = B.wait[ebid]
            if np.count_nonzero(left < 0):
                b = int(ebid[left < 0].min())
                self._unexpected(int(B.u[b]), int(esrc[ebid == b].max()), b)
            done = (left == 0).nonzero()[0]
            if done.size:
                # a broadcast settles on its last ECHO, read in sender
                # order (the echoes arrive by ascending sender)
                done = done[ebid[done].argsort(kind="stable")]
                ub = ebid[done]
                last = np.empty(ub.size, dtype=bool)
                last[-1] = True
                np.not_equal(ub[1:], ub[:-1], out=last[:-1])
                owes.append(self._settle(ub[last], esrc[done[last]]))
        if data is not None:
            if check:
                dst, src = data[0], data[1]
                wrong = self.phase[dst] != p0[src]
                if np.count_nonzero(wrong):
                    j = int(wrong.nonzero()[0][np.argmin(dst[wrong])])
                    u = int(dst[j])
                    raise ProtocolError(
                        f"node {u}: phase-{int(p0[src[j]])} data while in "
                        f"phase {int(self.phase[u])}")
            owes.append(self._accept(*data))
        self._owe(owes)

    def _control(self, w, u, ph, start, p0, starts: int) -> None:
        """COMPLETE / START from ``w`` to ``u``: count a child's COMPLETE,
        forward a START down the tree."""
        bad = np.where(start, (self.parent[u] != w) | (ph < p0[u] - 1),
                       self.parent[w] != u)
        if np.count_nonzero(bad):
            # the first offence in inbox order
            j = int(bad.nonzero()[0][(u * self.n + w)[bad].argmin()])
            w, u, ph = int(w[j]), int(u[j]), int(ph[j])
            if not start[j]:
                raise ProtocolError(f"node {u}: COMPLETE from non-child {w}")
            if self.parent[u] != w:
                raise ProtocolError(f"node {u}: START from non-parent {w}")
            raise ProtocolError(
                f"node {u}: START({ph}) while in phase {p0[u]} skipped a "
                f"phase — FIFO control ordering violated")
        if starts:
            self._forward_start(u[start], ph[start])
        if starts < u.size:
            up = ~start
            u, ph = u[up], ph[up]
            np.add.at(self.reported.reshape(-1), u * self.k + ph, 1)
            self.due[u] = True

    def _complete(self) -> None:
        """Step 2: COMPLETE convergecast; the leader releases the next
        phase."""
        due = self.due.nonzero()[0]
        if not due.size:
            return
        self.due[due] = False
        ready = self._ready(due)
        if not ready.size:
            return
        self.complete_sent[ready] = True
        ph, par = self.phase[ready], self.parent[ready]
        up = par >= 0
        if np.count_nonzero(up):
            self.ctrl.append((ready[up], par[up], ph[up],
                              np.zeros(np.count_nonzero(up), dtype=bool)))
        root = ready[~up]
        if root.size:
            self._forward_start(root, ph[~up] - 1)
            self._advance(root)

    def _unexpected(self, u: int, w: int, bid: int) -> None:
        key = (int(self.bc.s[bid]), float(self.bc.dist[bid]))
        raise ProtocolError(f"node {u}: unexpected echo {key} from {w}")

    def _send(self):
        """Step 3 for every node: control, else an owed ECHO, on each edge
        that has one; a data broadcast from nodes that sent neither.
        Returns the mail ``(data, echoes, control)``."""
        n = self.n
        free = self.queue.nonempty()
        if self.nowed:
            free &= self.owed_n == 0
        ctrl = None
        if self.ctrl:
            ctrl = (self.ctrl[0] if len(self.ctrl) == 1 else
                    tuple(np.concatenate(c) for c in zip(*self.ctrl)))
            self.ctrl = []
            free[ctrl[0]] = False
        echoes = None
        if self.nowed:
            owing = self.owed.nonempty()
            if ctrl is not None:  # control first on its edge
                owing[self.edge_key.searchsorted(ctrl[0] * n + ctrl[1])] = \
                    False
            edge = owing.nonzero()[0]
            if edge.size:
                esrc = self.edge_src[edge]
                echoes = (esrc, self.nbr[edge], self.owed.pop(edge))
                self.owed_n -= np.bincount(esrc, minlength=n)
                self.nowed -= edge.size
        return self._serve(free.nonzero()[0]), echoes, ctrl

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
                edge = _spans(self.indptr[flood], self.deg[flood])
                dst, src = self.nbr[edge], self.edge_src[edge]
                cid, ch = best[src], hops[src] + 1
                self._wake(np.zeros(n, dtype=bool), dst, timer=timer)
                o = np.lexsort((src, ch, -cid, dst))
                o = o[_run_starts(dst[o])]
                d, c, h, w = dst[o], cid[o], ch[o], src[o]
                up = (c > best[d]) | ((c == best[d]) & (h < hops[d]))
                improved = d[up]
                best[improved], hops[improved] = c[up], h[up]
                parent[improved] = w[up]
            else:
                self._wake(np.zeros(n, dtype=bool), parent[adopt],
                           timer=timer)
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
        # the tree as a CSR: each node's children, ascending
        self.parent = parent
        self.nchild = np.bincount(parent[adopt], minlength=n)
        self.kids = adopt[parent[adopt].argsort(kind="stable")]
        self.kids_at = self.nchild.cumsum() - self.nchild
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
