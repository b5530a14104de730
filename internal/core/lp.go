package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"gowarp/internal/audit"
	"gowarp/internal/codec"
	"gowarp/internal/comm"
	"gowarp/internal/event"
	"gowarp/internal/gvt"
	"gowarp/internal/observe"
	"gowarp/internal/pq"
	"gowarp/internal/route"
	"gowarp/internal/statesave"
	"gowarp/internal/stats"
	"gowarp/internal/telemetry"
	"gowarp/internal/vtime"
)

// shared holds the cross-LP tables. rt is the only one mutated after start:
// the routing table's entries move when objects migrate (single atomic words;
// see internal/route). objs is written only during construction and the
// end-of-run sweep; during the run each LP touches only the objects it hosts.
type shared struct {
	rt   *route.Table // ObjectID -> hosting LP, migration-aware
	objs []*simObject // ObjectID -> runtime
	// progress is the per-LP progress board each LP overwrites at every GVT
	// application (see snapshot), read by every GVT-period consumer.
	progress *observe.Board
	// load is the balancer's per-object observation channel; nil unless
	// Config.Balance selects the dynamic mode.
	load *stats.LoadBoard

	// optAdaptive marks the adaptive optimism facet active; optWin is then
	// the window in force (0 = unbounded), written by LP 0's controller
	// (and tuner overrides) and read by every LP's horizon(). Static runs
	// never touch either.
	optAdaptive bool
	optWin      atomic.Int64
}

// lpRun is one logical process: a goroutine owning a set of simulation
// objects, a scheduler over them, a network endpoint and a GVT manager.
type lpRun struct {
	id      int
	cfg     *Config
	k       *shared
	objs    []*simObject
	sched   *pq.ScheduleHeap
	ep      *comm.Endpoint
	gvtMgr  *gvt.Manager
	inbox   <-chan comm.Packet
	st      stats.Counters
	running bool

	// pool is this LP's event free list (see the ownership rules in package
	// event). Everything the LP creates, clones or decodes draws from it,
	// and annihilation, fossil collection and anti-message transmission
	// recycle into it. Single-owner, like everything else here: in legacy
	// mode the owner is this LP's goroutine; under the worker-pool
	// dispatcher the pool belongs to the owning worker (shared by its other
	// LPs) and is rebound on adoption.
	pool *event.Pool

	// spill is this LP's inbound packet queue under the worker-pool
	// dispatcher (nil in legacy goroutine-per-LP mode, where inbox is the
	// receive channel instead). spillScratch is the drained batch from the
	// previous round, reused so steady-state draining allocates nothing.
	spill        *spillbox
	spillScratch []comm.Packet

	// dsp is the worker-pool dispatcher (nil in legacy mode); LP 0 fires its
	// remap controller at each GVT application.
	dsp *dispatcher

	// deferred holds intra-LP messages awaiting insertion; deferring them
	// to the main loop keeps rollback cascades from re-entering an object
	// mid-rollback. deferredSpare is the drained slice from the previous
	// round, kept so the two buffers ping-pong instead of reallocating.
	deferred      []*event.Event
	deferredSpare []*event.Event

	// idleTick bounds how long an idle LP sleeps before re-checking
	// aggregation deadlines and (on LP 0) GVT initiation. idleTimer is the
	// reused timer backing those waits (allocated on first use).
	idleTick  time.Duration
	idleTimer *time.Timer

	// numLPs and started support timeline sampling (see timeline.go).
	numLPs   int
	started  time.Time
	timeline []Sample

	// tunerGen is the last-applied external-adjustment generation.
	tunerGen uint64

	// tr is this LP's trace recorder (nil when tracing is disabled; all
	// recording methods are no-ops on nil). met and lastGVTWall drive the
	// live metrics published at each GVT application (met nil when off).
	tr          *telemetry.LPTrace
	met         *runMetrics
	lastGVTWall time.Time

	// obs is the observation sampler (nil when observation is off): the LP
	// publishes its LVT after each execution, and the rollback path feeds
	// its histogram. Progress counters reach it through the board.
	obs *observe.Sampler

	// au is this LP's invariant-audit recorder (nil when auditing is
	// disabled; hot paths guard on the pointer so the off path costs one
	// comparison).
	au *audit.LPAudit

	// local maps ObjectID to the hosted runtime, nil for objects living
	// elsewhere. It is this LP's authoritative view of what it hosts —
	// consulted before the shared routing table on every route and delivery,
	// so a stale table entry can misdirect an event (which is then
	// forwarded) but never misdeliver one.
	local []*simObject
	// outbound maps objects this LP migrated away to their destination, for
	// the window where the routing table still names this LP (the table
	// flips only after the destination installs the capsule). Entries are
	// deleted if the object ever migrates back here.
	outbound map[event.ObjectID]int

	// ld accumulates this LP's load observations between GVT applications;
	// bal is the balancing controller (LP 0 only). Both are nil unless
	// Config.Balance is dynamic, so static runs pay one pointer comparison.
	ld  *loadRecorder
	bal *balancer

	// opt is the adaptive optimism controller (LP 0 only; nil unless
	// Config.Optimism selects the adaptive mode).
	opt *optController

	// hist and lazy are the active lists that keep every GVT-period and
	// idle pass proportional to the objects doing work rather than to the
	// objects hosted. hist holds the objects fossil collection may still
	// find work in (see simObject.quiescent); lazy holds the objects with
	// parked lazy-cancellation outputs. An object joins through
	// noteHistory/noteLazy and leaves during the pass that finds it done;
	// its onHist/onLazy flag mirrors membership. Both lists follow an
	// object across migration and, being per-LP, an LP across workers.
	hist []*simObject
	lazy []*simObject

	// reports stashes end-of-run rank reports (PktReport) that reach LP 0 of
	// a distributed run's coordinator while it is still in its loop. By
	// protocol that cannot happen — remote ranks report only after receiving
	// the stop broadcast this LP sent before it stopped — but stashing is
	// cheaper than being wrong about that.
	reports []comm.Packet
}

// refresh re-keys o in the schedule heap after its pending set changed,
// carrying the deterministic (vt, seq, object-id) tie-break the oracle
// hashes depend on: at equal receive times the object whose head event has
// the lower send sequence (then the lower global id) executes first,
// independent of the slot order migrations happen to have produced.
func (lp *lpRun) refresh(o *simObject) {
	if e := o.pending.PeekMin(); e != nil {
		lp.sched.UpdateKey(o.slot, e.RecvTime, uint64(e.SendSeq), int32(o.id))
		return
	}
	lp.sched.UpdateKey(o.slot, vtime.PosInf, 0, int32(o.id))
}

// noteEdge feeds the load recorder's communication-affinity matrix.
func (lp *lpRun) noteEdge(ev *event.Event) {
	if lp.ld != nil && ev.Sender != ev.Receiver {
		lp.ld.edges[stats.EdgeKey(int32(ev.Sender), int32(ev.Receiver))]++
	}
}

// routeRecorded delivers an output event that stays owned by its sender's
// cancellation manager (the output-queue record). A locally hosted receiver
// gets an independent pool clone — record and queues must never share a
// pointer once events are recycled — and a remote receiver gets the wire
// encoding; either way the caller's pointer remains valid after the call.
// Urgent messages flush the aggregation buffer immediately. Hosting is
// decided by this LP's own local table, not the shared routing table, so an
// object this LP is about to migrate still receives intra-LP sends until
// the capsule is packed.
func (lp *lpRun) routeRecorded(ev *event.Event, urgent bool) {
	lp.noteEdge(ev)
	if lp.local[ev.Receiver] != nil {
		if lp.au != nil {
			lp.au.Route(ev, false)
		}
		lp.deferred = append(lp.deferred, lp.pool.Clone(ev))
		lp.st.IntraLPMsgs++
		return
	}
	if lp.au != nil {
		lp.au.Route(ev, true)
	}
	lp.ep.Send(ev, lp.owner(ev.Receiver), urgent)
}

// routeOwned delivers an event the caller owns outright (anti-messages and
// forwards, which have no output-queue record). A local receiver takes
// ownership of the pointer itself; a remote send transfers ownership to the
// wire bytes, so the struct is recycled as soon as it is encoded.
func (lp *lpRun) routeOwned(ev *event.Event, urgent bool) {
	lp.noteEdge(ev)
	if lp.local[ev.Receiver] != nil {
		if lp.au != nil {
			lp.au.Route(ev, false)
		}
		lp.deferred = append(lp.deferred, ev)
		lp.st.IntraLPMsgs++
		return
	}
	if lp.au != nil {
		lp.au.Route(ev, true)
	}
	lp.ep.Send(ev, lp.owner(ev.Receiver), urgent)
	lp.pool.Put(ev)
}

// owner resolves the LP to address for an object this LP does not host. The
// shared routing table answers except during the in-flight window of a
// migration this LP initiated, when the table still names this LP and the
// outbound hint names the capsule's destination.
func (lp *lpRun) owner(id event.ObjectID) int {
	dst := lp.k.rt.Owner(int(id))
	if dst != lp.id {
		return dst
	}
	if to, ok := lp.outbound[id]; ok {
		return to
	}
	panic(fmt.Sprintf("core: LP %d: routing table names this LP for object %d, but it is neither hosted nor in flight", lp.id, id))
}

// deliver hands an arriving event to its target object. If the object has
// migrated away, the event is forwarded to the current owner: per-sender FIFO
// channels guarantee the capsule left before any event we could be holding,
// so the routing table (or our own outbound hint) already knows a newer home.
func (lp *lpRun) deliver(ev *event.Event) {
	if o := lp.local[ev.Receiver]; o != nil {
		o.deliver(ev)
		return
	}
	if lp.au != nil {
		lp.au.Forward(ev)
	}
	lp.st.ForwardedMsgs++
	lp.ep.Send(ev, lp.owner(ev.Receiver), ev.IsAnti())
	lp.pool.Put(ev)
}

// emitAnti is the cancellation managers' transmit hook; the anti-message
// arrives pool-owned and routeOwned disposes of it.
func (lp *lpRun) emitAnti(anti *event.Event) { lp.routeOwned(anti, true) }

// drainDeferred inserts queued intra-LP messages until none remain
// (insertions can trigger rollbacks that enqueue more). The drained and
// filling slices ping-pong so steady state appends into warm capacity.
func (lp *lpRun) drainDeferred() {
	for len(lp.deferred) > 0 {
		q := lp.deferred
		lp.deferred = lp.deferredSpare[:0]
		for i, ev := range q {
			q[i] = nil
			lp.deliver(ev)
		}
		lp.deferredSpare = q[:0]
	}
}

// drainInbox handles every packet currently queued, without blocking. Legacy
// mode reads the transport channel; pool mode drains the spillbox.
func (lp *lpRun) drainInbox() {
	if lp.spill != nil {
		lp.drainSpill()
		return
	}
	for lp.running {
		select {
		case p := <-lp.inbox:
			lp.handlePacket(p)
		default:
			return
		}
	}
}

// drainSpill handles every packet queued in the spillbox. Batches swap out
// under the lock and the drained slice is reused next round. Like the
// channel path, handling stops when a packet stops the LP — the remainder
// goes back to the front of the queue for the end-of-run sweep.
func (lp *lpRun) drainSpill() {
	for lp.running {
		b := lp.spill
		if b.n.Load() == 0 {
			return
		}
		b.mu.Lock()
		if len(b.q) == 0 {
			b.mu.Unlock()
			return
		}
		q := b.q
		b.q = lp.spillScratch[:0]
		b.n.Store(0)
		b.mu.Unlock()
		for i := range q {
			p := q[i]
			q[i] = comm.Packet{}
			lp.handlePacket(p)
			if !lp.running && i+1 < len(q) {
				rest := append([]comm.Packet(nil), q[i+1:]...)
				b.mu.Lock()
				b.q = append(rest, b.q...)
				b.n.Store(int32(len(b.q)))
				b.mu.Unlock()
				break
			}
		}
		lp.spillScratch = q[:0]
	}
}

func (lp *lpRun) handlePacket(p comm.Packet) {
	switch p.Kind {
	case comm.PktEvents:
		evs, err := lp.ep.DecodeEvents(p)
		if err != nil {
			panic(fmt.Sprintf("core: LP %d: corrupt events packet from LP %d: %v", lp.id, p.From, err))
		}
		if lp.au != nil {
			lp.au.Packet(len(evs), p.Count)
		}
		for _, ev := range evs {
			lp.deliver(ev)
		}
	case comm.PktMigrateReq:
		lp.onMigrateReq(p)
	case comm.PktMigrate:
		lp.ep.ReceiveMigration(p)
		lp.install(p)
	case comm.PktToken:
		lp.drainDeferred()
		if g, found := lp.gvtMgr.OnToken(p.Token, lp.localMin()); found {
			lp.finishGVT(g)
		}
	case comm.PktGVT:
		lp.gvtMgr.Apply(p.GVT)
		lp.applyGVT(p.GVT)
	case comm.PktOptim:
		// Wake-only: the adaptive optimism window lives in the shared
		// atomic slot, so the payload is the arrival itself — it broke the
		// idle() select of an LP blocked at the old horizon, and the run
		// loop re-reads horizon() on its next iteration.
	case comm.PktReport:
		lp.reports = append(lp.reports, p)
	case comm.PktStop:
		lp.running = false
	}
}

// localMin computes this LP's contribution to GVT: the minimum over
// unprocessed events, queued intra-LP messages, and unsent lazy
// anti-messages. Objects on the lazy list with no executable work first
// drain their stale outputs so idle LPs never hold GVT back. It visits only
// the lazy list; the schedule heap supplies the unprocessed minimum.
func (lp *lpRun) localMin() vtime.Time {
	lp.drainStale()
	lp.drainDeferred()
	return lp.nextMin()
}

// nextMin is the local minimum as the bookkeeping holds it: the schedule
// heap's head, which refresh keeps equal to the least nextTime over every
// hosted object, and the least unsent lazy output on the lazy list, which
// holds every object with parked outputs.
func (lp *lpRun) nextMin() vtime.Time {
	_, min := lp.sched.Min()
	for _, o := range lp.lazy {
		min = vtime.Min(min, o.out.MinPending())
	}
	return min
}

// drainStale sweeps the lazy list: each object on it drains its parked
// outputs if it has no executable work left (see simObject.drainStale), and
// objects left with no parked output leave the list. Objects off the list
// hold no parked output, so the sweep is exact.
func (lp *lpRun) drainStale() {
	kept := lp.lazy[:0]
	for _, o := range lp.lazy {
		o.drainStale()
		if o.out.PendingLen() == 0 {
			o.onLazy = false
			continue
		}
		kept = append(kept, o)
	}
	clear(lp.lazy[len(kept):])
	lp.lazy = kept
}

// horizon returns the latest virtual time this LP may optimistically execute
// at: unbounded without an optimism window, otherwise the last known GVT
// (floored at zero, since GVT starts at -inf) plus the window. Blocked LPs
// idle, which forces GVT computations, which advance the horizon — and under
// the adaptive facet they are additionally woken when the controller widens
// the window (see runOptimism). Under that facet the shared slot is
// authoritative: a tuner override re-seeds the slot at GVT instead of
// masking the controller here.
func (lp *lpRun) horizon() vtime.Time {
	w := lp.cfg.OptimismWindow
	if tn := lp.cfg.Tuner; tn != nil {
		if ov, ok := tn.windowOverride(); ok {
			w = ov
		}
	}
	if lp.k.optAdaptive {
		w = vtime.Time(lp.k.optWin.Load())
	}
	if w <= 0 {
		return vtime.PosInf
	}
	return vtime.Max(lp.gvtMgr.GVT(), vtime.Zero).Add(w)
}

// maybeGVT lets LP 0 start a GVT computation; force is set when the LP has
// gone idle, so termination is detected without waiting a full period. The
// local minimum is computed only when a computation actually starts.
func (lp *lpRun) maybeGVT(force bool) {
	if !lp.gvtMgr.Due(force) {
		return
	}
	if g, found := lp.gvtMgr.Initiate(lp.localMin()); found {
		lp.finishGVT(g) // single-LP short circuit
	}
}

// finishGVT runs on the initiator when a computation completes: broadcast
// the value, fossil-collect locally, and terminate the simulation once GVT
// has strictly passed the end time or the model has drained (GVT == +inf,
// which is not after an unbounded end time). Strictness matters: GVT equal
// to a finite end time still admits an in-flight event with receive time
// exactly EndTime, which must execute before the simulation may stop.
func (lp *lpRun) finishGVT(g vtime.Time) {
	lp.ep.BroadcastGVT(g)
	lp.applyGVT(g)
	if g.After(lp.cfg.EndTime) || g == vtime.PosInf {
		lp.ep.BroadcastStop()
		lp.running = false
	}
}

// applyGVT fossil-collects the objects on the history list against the new
// GVT, dropping those left quiescent, publishes this LP's progress row, and
// runs the GVT-period consumers: the controllers, the pool remap, and (when
// enabled) the timeline and metrics. A quiescent object is skipped exactly:
// fossil collection would find nothing in it to reclaim or commit.
func (lp *lpRun) applyGVT(g vtime.Time) {
	if lp.au != nil {
		lp.au.ApplyGVT(g)
		lp.auditObjects(g)
	}
	kept := lp.hist[:0]
	for _, o := range lp.hist {
		o.fossilCollect(g)
		if o.quiescent() {
			o.onHist = false
			continue
		}
		kept = append(kept, o)
	}
	clear(lp.hist[len(kept):])
	lp.hist = kept
	// Before every reader below, so each sees this LP's latest counters.
	p := lp.snapshot(g)
	if lp.ld != nil {
		lp.publishLoad()
		if lp.bal != nil {
			lp.runBalancer()
		}
	}
	lp.applyTuner()
	if lp.opt != nil {
		lp.runOptimism()
	}
	if lp.dsp != nil && lp.id == 0 {
		lp.dsp.maybeRemap(lp.k.progress)
	}
	if lp.cfg.Timeline || lp.met != nil {
		// One pass over the hosted objects serves both; runs without either
		// pay no per-object loop per GVT.
		meanChi, lazy, meanWindow := lp.controlSnapshot()
		if lp.cfg.Timeline {
			lp.recordSample(p, meanChi, lazy, meanWindow)
		}
		if lp.met != nil {
			lp.publishMetrics(p, meanChi, lazy, meanWindow)
		}
	}
}

// auditObjects runs the per-object checks of an audited GVT application, the
// one pass at GVT that visits every hosted object, before any history is
// reclaimed: invariant (b), that the new estimate sits at or below every
// object's unprocessed minimum and its minimum unresolved lazy output; that
// an object off the history list is quiescent and one with parked outputs
// is on the lazy list; and that the local minimum the schedule heap and the
// lazy list yield equals the brute-force minimum over every object.
func (lp *lpRun) auditObjects(g vtime.Time) {
	scan := vtime.PosInf
	for _, o := range lp.objs {
		next, unsent := o.nextTime(), o.out.MinPending()
		o.au.Floor(g, next, unsent)
		o.au.ActiveLists(o.onHist, o.quiescent(), o.onLazy, o.out.PendingLen())
		scan = vtime.Min(scan, vtime.Min(next, unsent))
	}
	lp.au.LocalMin(lp.nextMin(), scan)
}

// snapshot publishes this LP's progress row on the board and returns it.
func (lp *lpRun) snapshot(g vtime.Time) observe.Progress {
	p := observe.Progress{
		GVT:        int64(g),
		Processed:  lp.st.EventsProcessed,
		Committed:  lp.st.EventsCommitted,
		RolledBack: lp.st.EventsRolledBack,
		Rollbacks:  lp.st.Rollbacks,
	}
	lp.k.progress.Publish(lp.id, p)
	return p
}

// initObjects builds each hosted object's initial state, runs Init, and
// takes the initial checkpoint (after Init, so Init is never re-executed by
// rollback).
func (lp *lpRun) initObjects() {
	for _, o := range lp.objs {
		o.state = o.obj.InitialState()
		o.ectx.cur = nil
		o.obj.Init(&o.ectx, o.state)
		meta := statesave.Snapshot{
			SendVT:  o.sendVT,
			SendSeq: o.sendSeq,
			Hash:    o.au.HashOf(o.state),
		}
		o.stateQ = statesave.NewQueue(o.state, meta, codec.NewState(lp.cfg.Codec))
		bindObjectHooks(lp, o) // rebind now that the state queue exists
		lp.refresh(o)
		o.noteHistory() // Init's outputs await their first fossil pass
	}
}

// pump drains communication and keeps the control machinery ticking: inbox
// (or spillbox), deferred intra-LP messages, GVT initiation on LP 0, and the
// endpoint's aggregation deadlines. Shared by the legacy per-LP loop and the
// worker-pool dispatcher.
func (lp *lpRun) pump(now time.Time) {
	lp.drainInbox()
	if !lp.running {
		return
	}
	lp.drainDeferred()
	if lp.id == 0 {
		lp.maybeGVT(false)
	}
	lp.ep.Poll(now)
}

// execStep executes the lowest-timestamped pending event if one lies within
// the end time and the optimism horizon, reporting whether anything ran.
func (lp *lpRun) execStep() bool {
	slot, t := lp.sched.Min()
	if slot < 0 || t == vtime.PosInf || t.After(lp.cfg.EndTime) || t.After(lp.horizon()) {
		return false
	}
	o := lp.objs[slot]
	o.executeNext()
	lp.refresh(o)
	if lp.obs != nil {
		lp.obs.PublishLVT(lp.id, int64(o.lvt))
	}
	return true
}

// run is the legacy goroutine-per-LP body: drain communication, keep the
// control machinery ticking, execute the lowest-timestamped local event,
// repeat; block briefly when idle. (Under Config.Workers > 0 the worker-pool
// dispatcher drives the same pump/execStep pieces instead; see dispatch.go.)
func (lp *lpRun) run() {
	lp.initObjects()
	for lp.running {
		lp.pump(time.Now())
		if !lp.running {
			break
		}
		if lp.execStep() {
			// Yield between events so peers' control traffic (GVT tokens,
			// stragglers) flows at event granularity even when the host
			// has fewer cores than LPs; without this a spinning LP holds
			// its core until involuntary preemption (~ms), and GVT — and
			// with it every optimism-window refill — stalls behind it.
			runtime.Gosched()
			continue
		}
		lp.idle()
	}
}

// idle blocks on the inbox with a bounded timeout: the next aggregation
// deadline if one is pending, else the idle tick. On wake, LP 0 may force a
// GVT computation so global quiescence turns into termination.
func (lp *lpRun) idle() {
	lp.drainStale()
	timeout := lp.idleTick
	if dl, ok := lp.ep.NextDeadline(); ok {
		if d := time.Until(dl); d < timeout {
			timeout = d
		}
	}
	if timeout > 0 {
		// One timer per LP, reused across idle periods. The Stop/drain
		// dance keeps the channel empty so a later Reset cannot deliver a
		// stale tick (pre-Go-1.23 timer semantics, which this module's go
		// directive selects).
		if lp.idleTimer == nil {
			lp.idleTimer = time.NewTimer(timeout)
		} else {
			lp.idleTimer.Reset(timeout)
		}
		select {
		case p := <-lp.inbox:
			if !lp.idleTimer.Stop() {
				select {
				case <-lp.idleTimer.C:
				default:
				}
			}
			lp.handlePacket(p)
		case <-lp.idleTimer.C:
		}
	}
	lp.ep.Poll(time.Now())
	if lp.id == 0 && lp.running {
		lp.maybeGVT(true)
	}
}
