package core

import (
	"testing"

	"gowarp/internal/cancel"
	"gowarp/internal/comm"
	"gowarp/internal/event"
	"gowarp/internal/model"
	"gowarp/internal/vtime"
)

// relayObject forwards every event it executes to peer one time unit later;
// seeded relays also send one event to peer from Init.
type relayObject struct {
	peer event.ObjectID
	seed bool
	buf  [8]byte
}

func (r *relayObject) Name() string              { return "relay" }
func (r *relayObject) InitialState() model.State { return nilState{} }

func (r *relayObject) Init(ctx model.Context, st model.State) {
	if r.seed {
		ctx.Send(r.peer, 1, 0, r.buf[:])
	}
}

func (r *relayObject) Execute(ctx model.Context, st model.State, ev *event.Event) {
	ctx.Send(r.peer, 1, 0, r.buf[:])
}

// injected builds an event from sender to receiver at recv with the given
// identity and sign, drawn from lp's pool.
func injected(lp *lpRun, sender, receiver event.ObjectID, id uint64, recv vtime.Time, sign event.Sign) *event.Event {
	e := lp.pool.Get()
	e.Sender, e.Receiver, e.ID = sender, receiver, id
	e.SendTime, e.RecvTime, e.Sign = 0, recv, sign
	return e
}

// TestMigratedLazyOutputsDrain moves an object holding a parked lazy output
// to another LP and checks that both active lists follow it: it leaves the
// source's lists, joins the destination's, and once it runs out of work the
// destination's lazy sweep drains the parked output, whose anti-message then
// annihilates the original at its receiver.
func TestMigratedLazyOutputsDrain(t *testing.T) {
	cfg := DefaultConfig(vtime.Time(1) << 40)
	cfg.Cancellation = cancel.Config{Mode: cancel.StaticLazy}
	objs := []model.Object{&relayObject{peer: 1}, &relayObject{peer: 0}, &relayObject{peer: 2}}
	lps := newTestLPs(cfg, objs, []int{0, 1, 0})
	src, dst := lps[0], lps[1]
	for _, lp := range lps {
		lp.initObjects()
	}
	a, b := src.local[0], dst.local[1]

	// a executes an event at 10, sending to b on the other LP; a straggler
	// at 5 then rolls it back and lazy cancellation parks that output.
	a.deliver(injected(src, 2, 0, 1, 10, event.Positive))
	a.executeNext()
	src.refresh(a)
	src.ep.FlushAll(comm.FlushIdle)
	a.deliver(injected(src, 2, 0, 2, 5, event.Positive))
	if a.out.PendingLen() != 1 || !a.onLazy || len(src.lazy) != 1 {
		t.Fatalf("after the rollback: parked %d, onLazy %v, source lazy list %d; want 1, true, 1",
			a.out.PendingLen(), a.onLazy, len(src.lazy))
	}

	// a still has executable work, so packing does not drain it.
	src.migrateOut(a, 1)
	for _, o := range src.hist {
		if o == a {
			t.Fatal("migrated object left on the source's history list")
		}
	}
	if len(src.lazy) != 0 {
		t.Fatalf("source lazy list holds %d objects after the move, want 0", len(src.lazy))
	}
	dst.drainInbox() // b's event at 11 and the capsule
	if a.lp != dst || a.out.PendingLen() != 1 {
		t.Fatalf("capsule not installed with its parked output (host LP %d, parked %d)", a.lp.id, a.out.PendingLen())
	}
	if !a.onHist || !a.onLazy || len(dst.lazy) != 1 || dst.lazy[0] != a {
		t.Fatalf("installed object not on the destination's lists (onHist %v, onLazy %v, lazy %d)",
			a.onHist, a.onLazy, len(dst.lazy))
	}

	// Cancel both of a's pending events: with no work left, the next local
	// minimum drains the parked output.
	dst.deliver(injected(dst, 2, 0, 1, 10, event.Negative))
	dst.deliver(injected(dst, 2, 0, 2, 5, event.Negative))
	if got := dst.localMin(); got != vtime.PosInf {
		t.Errorf("local minimum after the drain = %s, want +inf", got)
	}
	if a.out.PendingLen() != 0 || a.onLazy || len(dst.lazy) != 0 {
		t.Errorf("after the drain: parked %d, onLazy %v, lazy list %d; want 0, false, 0",
			a.out.PendingLen(), a.onLazy, len(dst.lazy))
	}
	if dst.st.AntiMsgsSent != 1 || b.pending.Len() != 0 {
		t.Errorf("drained output: %d anti-message(s) sent, receiver still holds %d event(s); want 1 and 0",
			dst.st.AntiMsgsSent, b.pending.Len())
	}
}

// TestQuiescentObjectsLeaveHistory checks the history list's exit and
// re-entry: objects leave once fossil collection has nothing left in them,
// even while retaining committed events past their only snapshot, and
// execution brings one back with its fossil collection resuming where it
// stopped.
func TestQuiescentObjectsLeaveHistory(t *testing.T) {
	objs := []model.Object{&relayObject{peer: 0, seed: true}, &relayObject{peer: 1}, &relayObject{peer: 2}}
	lp := newTestLPs(DefaultConfig(vtime.Time(1)<<40), objs, []int{0, 0, 0})[0] // χ = 4
	lp.initObjects()
	if len(lp.hist) != 3 {
		t.Fatalf("history list after init holds %d objects, want 3", len(lp.hist))
	}
	// A pending event is not history: every object is quiescent once Init's
	// outputs are reclaimed.
	lp.applyGVT(lp.localMin())
	if len(lp.hist) != 0 {
		t.Fatalf("history list holds %d objects after the first GVT, want 0", len(lp.hist))
	}
	o := lp.local[0]
	run := func(events int) {
		for i := 0; i < events; i++ {
			o.executeNext()
			lp.refresh(o)
			lp.drainDeferred()
		}
		if !o.onHist || len(lp.hist) != 1 {
			t.Fatalf("after executing: onHist %v, history list %d; want true, 1", o.onHist, len(lp.hist))
		}
		lp.applyGVT(lp.localMin())
	}
	// Events 1-5 commit; the snapshot after event 4 is the only one left, so
	// event 5 stays retained (coast-forward material) yet o is done.
	run(5)
	if o.onHist || o.committedAbs != 5 || len(o.processed) != 1 {
		t.Fatalf("after 5 events: onHist %v, committed %d, retained %d; want false, 5, 1",
			o.onHist, o.committedAbs, len(o.processed))
	}
	// Events 6-8 bring o back; the snapshot after event 8 releases 5-8.
	run(3)
	if o.onHist || o.committedAbs != 8 || len(o.processed) != 0 {
		t.Errorf("after 8 events: onHist %v, committed %d, retained %d; want false, 8, 0",
			o.onHist, o.committedAbs, len(o.processed))
	}
}

// BenchmarkGVTRoundIdleObjects times one GVT round — the local minimum and
// the GVT application with its fossil pass — on one LP hosting 10^4
// objects, of which 1% hold pending events and execute one each between
// rounds (outside the timer). It is the per-layer baseline for GVT cost
// against hosted-but-idle objects.
func BenchmarkGVTRoundIdleObjects(b *testing.B) {
	const hosted, active = 10_000, 100
	objs := make([]model.Object, hosted)
	part := make([]int, hosted)
	for i := range objs {
		objs[i] = &relayObject{peer: event.ObjectID(i), seed: i%(hosted/active) == 0}
	}
	lp := newTestLPs(DefaultConfig(vtime.Time(1)<<40), objs, part)[0]
	lp.initObjects()
	step := func() {
		for i := 0; i < active; i++ {
			lp.drainDeferred()
			slot, _ := lp.sched.Min()
			o := lp.objs[slot]
			o.executeNext()
			lp.refresh(o)
		}
		lp.drainDeferred()
	}
	for i := 0; i < 4; i++ {
		step()
		lp.applyGVT(lp.localMin())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		step()
		b.StartTimer()
		lp.applyGVT(lp.localMin())
	}
	b.StopTimer()
	if lp.st.EventsCommitted == 0 {
		b.Fatal("no event committed")
	}
}
