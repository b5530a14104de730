// Package conservative implements a Chandy–Misra–Bryant (CMB) null-message
// kernel: the conservative synchronization baseline Time Warp is contrasted
// against in Section 2 of the paper. Logical processes execute an event only
// when every input channel guarantees no earlier message can arrive; blocked
// LPs exchange null messages carrying lower bounds on their future sends,
// with deadlock freedom guaranteed by a positive model lookahead.
//
// The kernel runs the same models as the optimistic kernel on the same
// simulated network (null messages pay full physical-message cost, which is
// precisely the overhead the protocol is famous for) and must produce
// exactly the sequential kernel's results — there is no speculation to
// repair, so no history queues, no rollbacks, no GVT.
package conservative

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gowarp/internal/comm"
	"gowarp/internal/event"
	"gowarp/internal/model"
	"gowarp/internal/pq"
	"gowarp/internal/spin"
	"gowarp/internal/stats"
	"gowarp/internal/vtime"
)

// Config parameterizes a conservative run.
type Config struct {
	// EndTime is the virtual time at which the simulation stops.
	EndTime vtime.Time
	// Lookahead is the model's guaranteed minimum send delay: every event
	// an object schedules for another object lies at least this far past
	// the sender's current virtual time. It must be positive (CMB's
	// deadlock-freedom condition) and must not exceed what the model
	// actually guarantees, or results are undefined.
	Lookahead vtime.Time
	// Cost is the simulated communication cost model (null messages pay
	// it too).
	Cost comm.CostModel
	// EventCost is the CPU burn per event execution.
	EventCost time.Duration
	// InboxDepth is the per-LP inbox capacity.
	InboxDepth int
}

// Result is what a conservative run produces.
type Result struct {
	// Stats holds the merged counters. EventsProcessed == EventsCommitted:
	// conservative execution commits everything it runs.
	Stats stats.Counters
	// NullMessages counts null messages sent.
	NullMessages int64
	// FinalStates holds every object's final state, indexed by ObjectID.
	FinalStates []model.State
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// EventRate returns committed events per wall-clock second.
func (r *Result) EventRate() float64 {
	s := r.Elapsed.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.Stats.EventsCommitted) / s
}

// lpState is one conservative logical process.
type lpState struct {
	id     int
	cfg    *Config
	lpOf   []int
	objs   map[event.ObjectID]*objState
	order  []*objState
	ep     *comm.Endpoint
	inbox  <-chan comm.Packet
	numLPs int

	pending pq.PendingSet
	// chanClock[src] is the lower bound on future arrivals from LP src.
	chanClock []vtime.Time
	// lastNull[dst] is the bound most recently promised to dst, to
	// suppress redundant nulls.
	lastNull []vtime.Time

	st      stats.Counters
	nulls   int64
	running bool
	done    bool // this LP has passed EndTime (or the model drained) and said its goodbyes

	// live counts the run's unexecuted events (shared by every LP) plus one
	// per LP still initializing its objects. Only executing an event creates
	// one, so zero is final: the model drained and every LP may promise
	// +inf. Without it a run under an unbounded end time never ends: null
	// messages raise the bounds by one lookahead per exchange forever.
	live *atomic.Int64
}

type objState struct {
	id      event.ObjectID
	obj     model.Object
	state   model.State
	sendVT  vtime.Time
	sendSeq uint32
	seq     uint64
}

// ctx implements model.Context for the conservative kernel.
type ctx struct {
	lp  *lpState
	o   *objState
	cur *event.Event
}

func (c *ctx) Self() event.ObjectID { return c.o.id }

func (c *ctx) Now() vtime.Time {
	if c.cur == nil {
		return vtime.Zero
	}
	return c.cur.RecvTime
}

func (c *ctx) EndTime() vtime.Time { return c.lp.cfg.EndTime }

func (c *ctx) Send(to event.ObjectID, delay vtime.Time, kind uint32, payload []byte) {
	if c.cur != nil && delay < c.lp.cfg.Lookahead {
		panic(fmt.Sprintf("conservative: object %d sent with delay %s below the declared lookahead %s",
			c.o.id, delay, c.lp.cfg.Lookahead))
	}
	if delay < 0 {
		panic(fmt.Sprintf("conservative: object %d sent into the past", c.o.id))
	}
	now := c.Now()
	if now != c.o.sendVT {
		c.o.sendVT = now
		c.o.sendSeq = 0
	}
	ev := &event.Event{
		SendTime: now,
		RecvTime: now.Add(delay),
		Sender:   c.o.id,
		Receiver: to,
		ID:       c.o.seq,
		SendSeq:  c.o.sendSeq,
		Kind:     kind,
		// Copied, not aliased: Context.Send lets callers reuse their
		// payload slice after the call, matching the Time Warp kernel.
		Payload: append([]byte(nil), payload...),
	}
	c.o.seq++
	c.o.sendSeq++
	c.lp.live.Add(1)
	dst := c.lp.lpOf[to]
	if dst == c.lp.id {
		c.lp.pending.Push(ev)
		c.lp.st.IntraLPMsgs++
		return
	}
	c.lp.ep.Send(ev, dst, true) // unaggregated, immediate
}

// safeBound returns the horizon below which no further remote event can
// arrive: the minimum input channel clock.
func (lp *lpState) safeBound() vtime.Time {
	min := vtime.PosInf
	for src, t := range lp.chanClock {
		if src != lp.id {
			min = vtime.Min(min, t)
		}
	}
	return min
}

// outBound returns the promise this LP can make about its future sends: the
// earliest it could execute anything (local pending or future arrival) plus
// the lookahead.
func (lp *lpState) outBound() vtime.Time {
	min := lp.safeBound()
	if e := lp.pending.PeekMin(); e != nil {
		min = vtime.Min(min, e.RecvTime)
	}
	if min.After(lp.cfg.EndTime) || lp.live.Load() == 0 {
		// Nothing below the end time will ever be sent again.
		return vtime.PosInf
	}
	return min.Add(lp.cfg.Lookahead)
}

// shareBounds sends (improved) null messages to every peer.
func (lp *lpState) shareBounds() {
	bound := lp.outBound()
	for dst := 0; dst < lp.numLPs; dst++ {
		if dst == lp.id || bound == lp.lastNull[dst] {
			continue
		}
		if bound.Before(lp.lastNull[dst]) {
			// Bounds are monotone; a regression would be a protocol bug.
			panic(fmt.Sprintf("conservative: LP %d bound regressed %s -> %s",
				lp.id, lp.lastNull[dst], bound))
		}
		lp.ep.SendNull(dst, bound)
		lp.lastNull[dst] = bound
		lp.nulls++
	}
}

func (lp *lpState) handlePacket(p comm.Packet) {
	switch p.Kind {
	case comm.PktEvents:
		evs, err := lp.ep.DecodeEvents(p)
		if err != nil {
			panic(fmt.Sprintf("conservative: LP %d: corrupt packet: %v", lp.id, err))
		}
		for _, ev := range evs {
			lp.pending.Push(ev)
			// An event from src also raises src's channel clock. The bound
			// it justifies is SendTime + lookahead: channels are FIFO and
			// the sender's virtual time (hence its send times) is
			// monotone, but receive times are not — a later send with a
			// shorter delay may land earlier.
			if b := ev.SendTime.Add(lp.cfg.Lookahead); b.After(lp.chanClock[p.From]) {
				lp.chanClock[p.From] = b
			}
		}
	case comm.PktNull:
		if p.Bound.After(lp.chanClock[p.From]) {
			lp.chanClock[p.From] = p.Bound
		}
	case comm.PktStop:
		lp.running = false
	}
}

// run is the conservative LP loop: drain inputs, execute every event
// strictly below the safe bound, promise new bounds, block when stuck.
func (lp *lpState) run() {
	for lp.running {
		// Drain whatever is queued.
	drain:
		for {
			select {
			case p := <-lp.inbox:
				lp.handlePacket(p)
			default:
				break drain
			}
		}

		// Execute all safe events (strictly below every channel clock; a
		// message at exactly the clock may still arrive).
		safe := lp.safeBound()
		executed := false
		for {
			e := lp.pending.PeekMin()
			if e == nil || !e.RecvTime.Before(safe) || e.RecvTime.After(lp.cfg.EndTime) {
				break
			}
			lp.pending.PopMin()
			o := lp.objs[e.Receiver]
			spin.Spin(lp.cfg.EventCost)
			c := ctx{lp: lp, o: o, cur: e}
			o.obj.Execute(&c, o.state, e)
			lp.live.Add(-1)
			lp.st.EventsProcessed++
			lp.st.EventsCommitted++
			executed = true
			runtime.Gosched()
		}

		lp.shareBounds()

		// Termination: past the end time (or drained) with nothing
		// executable left and all peers promising the same.
		if !lp.done {
			next := vtime.PosInf
			if e := lp.pending.PeekMin(); e != nil {
				next = e.RecvTime
			}
			if (next.After(lp.cfg.EndTime) && lp.safeBound().After(lp.cfg.EndTime)) || lp.live.Load() == 0 {
				lp.done = true
			}
		}
		if lp.done && lp.safeBound() == vtime.PosInf {
			lp.running = false
			break
		}

		if !executed {
			// Blocked: wait for a peer's event or null.
			timer := time.NewTimer(200 * time.Microsecond)
			select {
			case p := <-lp.inbox:
				timer.Stop()
				lp.handlePacket(p)
			case <-timer.C:
			}
		}
	}
}

// Run executes m conservatively and returns the results. Lookahead must be
// positive and honoured by the model.
func Run(m *model.Model, cfg Config) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if cfg.EndTime <= 0 {
		return nil, fmt.Errorf("conservative: non-positive end time %s", cfg.EndTime)
	}
	if cfg.Lookahead <= 0 {
		return nil, fmt.Errorf("conservative: non-positive lookahead %s (CMB requires lookahead for deadlock freedom)", cfg.Lookahead)
	}
	numLPs := m.NumLPs()
	net := comm.NewInProc(numLPs, comm.WithCost(cfg.Cost), comm.WithInboxDepth(cfg.InboxDepth))

	live := new(atomic.Int64)
	live.Store(int64(numLPs))
	lps := make([]*lpState, numLPs)
	for i := range lps {
		lp := &lpState{
			id:        i,
			cfg:       &cfg,
			lpOf:      m.Partition,
			objs:      make(map[event.ObjectID]*objState),
			inbox:     net.Recv(i),
			numLPs:    numLPs,
			pending:   pq.NewHeapSet(),
			chanClock: make([]vtime.Time, numLPs),
			lastNull:  make([]vtime.Time, numLPs),
			running:   true,
			live:      live,
		}
		for j := range lp.lastNull {
			lp.lastNull[j] = vtime.NegInf
		}
		lp.ep = comm.NewEndpoint(net, i, comm.AggConfig{Policy: comm.NoAggregation}, &lp.st)
		lps[i] = lp
	}
	for id, obj := range m.Objects {
		o := &objState{id: event.ObjectID(id), obj: obj}
		lps[m.Partition[id]].objs[o.id] = o
		lps[m.Partition[id]].order = append(lps[m.Partition[id]].order, o)
	}

	start := time.Now()
	var wg sync.WaitGroup
	panics := make([]interface{}, numLPs)
	for _, lp := range lps {
		wg.Add(1)
		go func(lp *lpState) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[lp.id] = r
					lp.ep.BroadcastStop()
				}
			}()
			// Init all objects, then enter the protocol loop.
			for _, o := range lp.order {
				o.state = o.obj.InitialState()
				c := ctx{lp: lp, o: o}
				o.obj.Init(&c, o.state)
			}
			live.Add(-1)
			lp.shareBounds()
			lp.run()
		}(lp)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, p := range panics {
		if p != nil {
			return nil, fmt.Errorf("conservative: LP %d failed: %v", i, p)
		}
	}

	res := &Result{
		FinalStates: make([]model.State, len(m.Objects)),
		Elapsed:     elapsed,
	}
	for _, lp := range lps {
		res.Stats.Merge(&lp.st)
		res.NullMessages += lp.nulls
		for _, o := range lp.order {
			res.FinalStates[o.id] = o.state
		}
	}
	return res, nil
}
