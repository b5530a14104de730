package core

// The worker-pool event dispatcher: N worker goroutines host all of a run's
// logical processes, each worker pulling the lowest-timestamped runnable
// object from a per-worker schedule queue (a pq.ScheduleHeap over the LPs it
// owns, keyed by each LP's own schedule-heap minimum with the deterministic
// (vt, seq, object-id) tie-break). This replaces goroutine-per-LP execution
// when Config.Workers > 0, following the Warped2 TimeWarpEventDispatcher
// structure: object count is no longer bounded by per-goroutine footprint,
// and a few hot LPs no longer strand the cores of their idle peers.
//
// Single-owner semantics survive the refactor by pinning: every LP (and with
// it every hosted object, pending set, state queue, cancellation manager and
// event pool reference) is owned by exactly one worker per scheduling epoch.
// Rollback, fossil collection and state saving run on the owning worker,
// untouched. GVT participation batches per worker as a consequence of
// ownership: the Mattern token's hops across same-worker LPs complete within
// one worker drain round, so a W-worker run pays ~W wake-ups per GVT round
// rather than numLPs. The optimism facet gates each worker's queue horizon
// through the per-LP horizon() check in execStep, so a tightened window
// throttles every worker identically.
//
// Re-mapping on line: every remapEvery GVT applications on LP 0, the
// dispatcher repacks LPs onto workers by longest-processing-time greedy
// packing of their processed-event deltas on the progress board. Ownership
// moves by a barrier-free release/adopt handoff: the current owner notices the new
// epoch, pushes the LP onto the target worker's adoption queue under that
// worker's mutex (the mutex hand-over is the happens-before edge for all the
// LP's unsynchronized state), and the adopter rebinds the LP's event pool to
// its own. The PR 3 balancer composes: it migrates objects between LPs, the
// dispatcher migrates LPs between workers.

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gowarp/internal/comm"
	"gowarp/internal/event"
	"gowarp/internal/observe"
	"gowarp/internal/pq"
	"gowarp/internal/stats"
	"gowarp/internal/vtime"
)

// poolBatch bounds how many events a worker executes from its schedule queue
// between communication pumps, trading scheduling precision for pump
// amortization.
const poolBatch = 32

// remapEvery is the number of GVT applications between LP→worker remap scans.
const remapEvery = 8

// spillbox is one LP's inbound packet queue under the pool dispatcher: an
// unbounded mutex-guarded slice instead of InProc's bounded channel. The
// channel would deadlock a pool run — a worker blocked sending to a full
// inbox may itself own the only goroutine that could drain it — while the
// spillbox never blocks a sender; the optimism window bounds how far any LP
// can run ahead, which bounds the backlog in practice.
type spillbox struct {
	mu sync.Mutex
	n  atomic.Int32 // queued count, for a lock-free empty check
	q  []comm.Packet
}

// poolNet is the in-process transport variant backing pool mode. Packets
// append to the destination's spillbox in global arrival order (which
// subsumes the per-sender FIFO the Transport contract requires) and wake the
// destination's owning worker.
type poolNet struct {
	cost  comm.CostModel
	boxes []spillbox
	d     *dispatcher
}

func newPoolNet(numLPs int, cost comm.CostModel) *poolNet {
	return &poolNet{cost: cost, boxes: make([]spillbox, numLPs)}
}

func (n *poolNet) Send(dst int, p comm.Packet, payloadBytes int) {
	n.cost.Charge(payloadBytes)
	b := &n.boxes[dst]
	b.mu.Lock()
	b.q = append(b.q, p)
	b.n.Store(int32(len(b.q)))
	b.mu.Unlock()
	n.d.wakeLP(dst)
}

// Recv returns nil: pool-mode LPs read their spillbox, never a channel.
func (n *poolNet) Recv(lp int) <-chan comm.Packet { return nil }

func (n *poolNet) Peers() comm.Peers {
	local := make([]int, len(n.boxes))
	for i := range local {
		local[i] = i
	}
	return comm.Peers{NumLPs: len(n.boxes), Local: local, Rank: 0, NumRanks: 1}
}

func (n *poolNet) Start() error { return nil }
func (n *poolNet) Close() error { return nil }

// dispatcher owns the worker fleet and the LP→worker maps.
type dispatcher struct {
	net     *poolNet
	workers []*worker
	// owner is the authoritative LP→worker map, updated at handoff; Send
	// consults it to wake the right worker (a stale read wakes the previous
	// owner, which is harmless — the packet sits in the spillbox either way).
	owner []atomic.Int32
	// target is the assignment the last remap decided; epoch bumps when it
	// changes, and each worker releases LPs whose target moved away.
	target []atomic.Int32
	epoch  atomic.Uint64
	// lastProcessed holds each LP's processed count at the previous remap
	// scan. Both remap fields are LP 0's applyGVT only, serialized by LP 0
	// ownership.
	lastProcessed []int64
	remapTick     int
	remaps        atomic.Int64
}

func newDispatcher(n *poolNet, numWorkers, numLPs int, cfg *Config) *dispatcher {
	d := &dispatcher{
		net:           n,
		owner:         make([]atomic.Int32, numLPs),
		target:        make([]atomic.Int32, numLPs),
		lastProcessed: make([]int64, numLPs),
	}
	n.d = d
	idle := cfg.GVTPeriod / 4
	if idle <= 0 {
		idle = 250 * time.Microsecond
	}
	for w := 0; w < numWorkers; w++ {
		d.workers = append(d.workers, &worker{
			id:       w,
			d:        d,
			pool:     event.NewPool(),
			wake:     make(chan struct{}, 1),
			idleTick: idle,
		})
	}
	for lp := 0; lp < numLPs; lp++ {
		w := int32(lp * numWorkers / numLPs) // block sharding, like BlockRanks
		d.owner[lp].Store(w)
		d.target[lp].Store(w)
	}
	return d
}

// workerOf returns the worker initially assigned to host lp.
func (d *dispatcher) workerOf(lp int) *worker { return d.workers[d.owner[lp].Load()] }

// attach hands the constructed LPs to their initial workers, in LP order.
func (d *dispatcher) attach(locals []*lpRun) {
	for _, lp := range locals {
		w := d.workerOf(lp.id)
		w.owned = append(w.owned, lp)
	}
}

func (d *dispatcher) wakeLP(lp int) {
	w := d.workers[d.owner[lp].Load()]
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// handoff moves lp from worker from to worker to. It fails — and ownership
// stays put — only when the target has already exited, which can happen only
// while the run is stopping.
func (d *dispatcher) handoff(lp *lpRun, from, to int) bool {
	tw := d.workers[to]
	tw.mu.Lock()
	if tw.dead {
		tw.mu.Unlock()
		d.target[lp.id].Store(int32(from))
		return false
	}
	d.owner[lp.id].Store(int32(to))
	tw.adoptQ = append(tw.adoptQ, lp)
	tw.mu.Unlock()
	select {
	case tw.wake <- struct{}{}:
	default:
	}
	d.remaps.Add(1)
	return true
}

// maybeRemap runs on LP 0's owning worker at each GVT application. Every
// remapEvery applications it recomputes the LP→worker assignment from each
// LP's processed events since the previous scan, read from the progress
// board, by greedy longest-processing-time packing and, when the plan
// differs from the current owners, publishes it and wakes every worker to
// apply it.
func (d *dispatcher) maybeRemap(progress *observe.Board) {
	d.remapTick++
	if d.remapTick < remapEvery {
		return
	}
	d.remapTick = 0
	numLPs := len(d.lastProcessed)
	loads := make([]int64, numLPs)
	order := make([]int, numLPs)
	for i := range loads {
		processed := progress.Load(i).Processed
		loads[i] = processed - d.lastProcessed[i]
		d.lastProcessed[i] = processed
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return loads[order[a]] > loads[order[b]] })

	type bin struct {
		load  int64
		count int
	}
	bins := make([]bin, len(d.workers))
	plan := make([]int32, numLPs)
	for _, lp := range order {
		best := 0
		for w := 1; w < len(bins); w++ {
			if bins[w].load < bins[best].load ||
				(bins[w].load == bins[best].load && bins[w].count < bins[best].count) {
				best = w
			}
		}
		bins[best].load += loads[lp]
		bins[best].count++
		plan[lp] = int32(best)
	}
	changed := false
	for lp := range plan {
		if plan[lp] != d.owner[lp].Load() {
			changed = true
			break
		}
	}
	if !changed {
		return
	}
	for lp := range plan {
		d.target[lp].Store(plan[lp])
	}
	d.epoch.Add(1)
	for _, w := range d.workers {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// publishMetrics refreshes the gowarp_worker_* metric slots from the worker
// atomics; called from LP 0's GVT application (any thread may read them).
func (d *dispatcher) publishMetrics(m *runMetrics) {
	for _, w := range d.workers {
		m.workerEvents.Set(w.id, float64(w.events.Load()))
		m.workerBusy.Set(w.id, float64(w.busyNS.Load())/1e9)
		m.workerOwned.Set(w.id, float64(w.ownedN.Load()))
		m.workerRunnable.Set(w.id, float64(w.runnable.Load()))
		m.workerAdoptions.Set(w.id, float64(w.adoptions.Load()))
	}
	m.workerRemaps.Set(0, float64(d.remaps.Load()))
}

// finalStats assembles the per-worker report and the final LP→worker map.
func (d *dispatcher) finalStats() (ws []stats.WorkerStats, assign []int) {
	for _, w := range d.workers {
		allocs, reuses := w.pool.Stats()
		ws = append(ws, stats.WorkerStats{
			Worker:          w.id,
			Events:          w.events.Load(),
			BusySeconds:     float64(w.busyNS.Load()) / 1e9,
			OwnedLPs:        int(w.ownedN.Load()),
			Adoptions:       w.adoptions.Load(),
			EventPoolAllocs: allocs,
			EventPoolReuses: reuses,
		})
	}
	assign = make([]int, len(d.owner))
	for lp := range d.owner {
		assign[lp] = int(d.owner[lp].Load())
	}
	return ws, assign
}

// worker is one dispatcher thread: a goroutine owning a disjoint set of LPs
// and a least-timestamp-first schedule queue over them.
type worker struct {
	id       int
	d        *dispatcher
	pool     *event.Pool // shared by every owned LP; rebound on adoption
	owned    []*lpRun
	lp0      *lpRun // the owned LP with id 0, if any (GVT initiator)
	sched    *pq.ScheduleHeap
	wake     chan struct{}
	idleTick time.Duration
	idleTmr  *time.Timer
	seen     uint64 // last remap epoch applied

	mu     sync.Mutex
	adoptQ []*lpRun
	dead   bool

	// Cross-worker-readable counters behind the gowarp_worker_* metrics and
	// the per-worker report.
	events    atomic.Int64
	busyNS    atomic.Int64
	ownedN    atomic.Int64
	runnable  atomic.Int64
	adoptions atomic.Int64
}

// rebuild reconstructs the worker's schedule queue after its owned set
// changed (adoption, release, or startup). Remaps happen at controller
// granularity, so the O(n) rebuild is irrelevant next to the event path.
func (w *worker) rebuild() {
	w.sched = pq.NewScheduleHeap(len(w.owned))
	w.lp0 = nil
	for i, lp := range w.owned {
		if lp.id == 0 {
			w.lp0 = lp
		}
		w.rekey(i)
	}
	w.ownedN.Store(int64(len(w.owned)))
}

// rekey refreshes owned slot i's key in the worker queue: the virtual time,
// send sequence and object id of the LP's lowest-timestamped pending event.
func (w *worker) rekey(i int) {
	lp := w.owned[i]
	if !lp.running {
		w.sched.UpdateKey(i, vtime.PosInf, 0, int32(lp.id))
		return
	}
	slot, t := lp.sched.Min()
	if slot < 0 || t == vtime.PosInf {
		w.sched.UpdateKey(i, vtime.PosInf, 0, int32(lp.id))
		return
	}
	o := lp.objs[slot]
	var seq uint64
	if e := o.pending.PeekMin(); e != nil {
		seq = uint64(e.SendSeq)
	}
	w.sched.UpdateKey(i, t, seq, int32(o.id))
}

// takeAdoptions claims LPs handed to this worker and rebinds their event
// pools: from now on everything those LPs create, clone, decode or recycle
// flows through this worker's free list — the same rebinding a migrated
// object gets in install().
func (w *worker) takeAdoptions() {
	w.mu.Lock()
	q := w.adoptQ
	w.adoptQ = nil
	w.mu.Unlock()
	if len(q) == 0 {
		return
	}
	for _, lp := range q {
		lp.pool = w.pool
		lp.ep.Pool = w.pool
		for _, o := range lp.objs {
			o.out.Rebind(lp.emitAnti, &lp.st, lp.pool)
		}
		w.owned = append(w.owned, lp)
		w.adoptions.Add(1)
	}
	w.rebuild()
}

// applyRemap releases owned LPs whose remap target moved elsewhere.
func (w *worker) applyRemap() {
	e := w.d.epoch.Load()
	if e == w.seen {
		return
	}
	w.seen = e
	kept := w.owned[:0]
	changed := false
	for _, lp := range w.owned {
		tgt := int(w.d.target[lp.id].Load())
		if tgt == w.id || !lp.running || !w.d.handoff(lp, w.id, tgt) {
			kept = append(kept, lp)
			continue
		}
		changed = true
	}
	if changed {
		// Clear the tail so released LPs are not pinned by the backing array.
		for i := len(kept); i < len(w.owned); i++ {
			w.owned[i] = nil
		}
		w.owned = kept
		w.rebuild()
	}
}

// tryExit retires the worker once every owned LP has stopped, unless an
// adoption slipped in — a handed-over LP may still be running, and its new
// owner must run it to its stop. After dead is set (under the same mutex
// handoff takes), no further LP can be handed here.
func (w *worker) tryExit() bool {
	w.mu.Lock()
	if len(w.adoptQ) > 0 {
		w.mu.Unlock()
		return false
	}
	w.dead = true
	w.mu.Unlock()
	return true
}

// run is the worker goroutine body: adopt, pump every owned LP's
// communication, then execute up to poolBatch events least-timestamp-first
// across the owned LPs; idle on the wake channel when nothing is runnable.
func (w *worker) run() {
	for _, lp := range w.owned {
		lp.initObjects()
	}
	w.rebuild()
	for {
		w.takeAdoptions()
		w.applyRemap()
		now := time.Now()
		alive := false
		runnable := 0
		for i, lp := range w.owned {
			if !lp.running {
				w.sched.UpdateKey(i, vtime.PosInf, 0, int32(lp.id))
				continue
			}
			alive = true
			lp.pump(now)
			w.rekey(i)
			if lp.running {
				if _, t := lp.sched.Min(); t != vtime.PosInf {
					runnable++
				}
			}
		}
		w.runnable.Store(int64(runnable))
		if !alive {
			if w.tryExit() {
				return
			}
			continue
		}
		start := time.Now()
		executed := 0
		for executed < poolBatch {
			slot, t := w.sched.Min()
			if slot < 0 || t == vtime.PosInf {
				break
			}
			lp := w.owned[slot]
			if !lp.running || !lp.execStep() {
				w.rekey(slot)
				break
			}
			executed++
			w.rekey(slot)
		}
		if executed > 0 {
			w.events.Add(int64(executed))
			w.busyNS.Add(time.Since(start).Nanoseconds())
			// Yield between batches so peer workers' control traffic flows
			// even when the host has fewer cores than workers.
			runtime.Gosched()
			continue
		}
		w.idle()
	}
}

// idle blocks on the wake channel with a bounded timeout (the next
// aggregation deadline across owned LPs, capped by the idle tick), then
// polls endpoints and — when this worker owns LP 0 — forces a GVT
// computation so global quiescence turns into termination.
func (w *worker) idle() {
	timeout := w.idleTick
	for _, lp := range w.owned {
		if !lp.running {
			continue
		}
		lp.drainStale()
		if dl, ok := lp.ep.NextDeadline(); ok {
			if d := time.Until(dl); d < timeout {
				timeout = d
			}
		}
	}
	if timeout > 0 {
		if w.idleTmr == nil {
			w.idleTmr = time.NewTimer(timeout)
		} else {
			w.idleTmr.Reset(timeout)
		}
		select {
		case <-w.wake:
			if !w.idleTmr.Stop() {
				select {
				case <-w.idleTmr.C:
				default:
				}
			}
		case <-w.idleTmr.C:
		}
	}
	now := time.Now()
	for _, lp := range w.owned {
		if lp.running {
			lp.ep.Poll(now)
		}
	}
	if w.lp0 != nil && w.lp0.running {
		w.lp0.maybeGVT(true)
	}
}
