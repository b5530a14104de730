package core

import (
	"runtime"
	"testing"
	"time"

	"gowarp/internal/apps/phold"
	"gowarp/internal/cancel"
	"gowarp/internal/codec"
	"gowarp/internal/comm"
	"gowarp/internal/event"
	"gowarp/internal/gvt"
	"gowarp/internal/model"
	"gowarp/internal/observe"
	"gowarp/internal/pq"
	"gowarp/internal/route"
	"gowarp/internal/statesave"
	"gowarp/internal/telemetry"
	"gowarp/internal/vtime"
)

// nilState is a zero-size model.State. Boxing a zero-size value into an
// interface reuses the runtime's shared zero word, so Clone costs no heap
// allocation — which lets the checkpoint path participate in the exact
// zero-allocation measurement below without exempting it.
type nilState struct{}

func (nilState) Clone() model.State { return nilState{} }
func (nilState) StateBytes() int    { return 0 }

// pingObject bounces a token to its peer with delay 1 per execution.
type pingObject struct {
	peer event.ObjectID
	buf  [8]byte
}

func (p *pingObject) Name() string              { return "ping" }
func (p *pingObject) InitialState() model.State { return nilState{} }

func (p *pingObject) Init(ctx model.Context, st model.State) {
	if ctx.Self() == 0 { // one token in flight, seeded once
		ctx.Send(p.peer, 1, 0, p.buf[:])
	}
}

func (p *pingObject) Execute(ctx model.Context, st model.State, ev *event.Event) {
	ctx.Send(p.peer, 1, 0, p.buf[:])
}

// newAllocHarness builds a single lpRun hosting two ping-ponging objects,
// driven synchronously so the steady-state execute path can be measured in
// isolation.
func newAllocHarness() *lpRun {
	objs := []model.Object{&pingObject{peer: 1}, &pingObject{peer: 0}}
	lp := newTestLPs(DefaultConfig(vtime.Time(1)<<40), objs, []int{0, 0})[0]
	lp.initObjects()
	return lp
}

// newTestLPs builds one lpRun per LP named in part, hosting objs by that
// partition, wired like Run wires them (in-process transport, endpoints, GVT
// managers, event pools, routing table) but with no goroutines: the caller
// drives every step. Objects are not yet initialised.
func newTestLPs(cfg Config, objs []model.Object, part []int) []*lpRun {
	numLPs := 0
	for _, p := range part {
		numLPs = max(numLPs, p+1)
	}
	sh := &shared{rt: route.New(part), objs: make([]*simObject, len(objs)), progress: observe.NewBoard(numLPs)}
	net := comm.NewInProc(numLPs)
	lps := make([]*lpRun, numLPs)
	for i := range lps {
		lp := &lpRun{
			id:       i,
			cfg:      &cfg,
			k:        sh,
			inbox:    net.Recv(i),
			running:  true,
			numLPs:   numLPs,
			local:    make([]*simObject, len(objs)),
			outbound: make(map[event.ObjectID]int),
			pool:     event.NewPool(),
		}
		lp.ep = comm.NewEndpoint(net, i, cfg.Aggregation, &lp.st)
		lp.ep.Pool = lp.pool
		lp.gvtMgr = gvt.NewManager(i, numLPs, lp.ep, cfg.GVTPeriod, &lp.st)
		lps[i] = lp
	}
	for id, obj := range objs {
		lp := lps[part[id]]
		o := &simObject{
			id:      event.ObjectID(id),
			slot:    len(lp.objs),
			obj:     obj,
			lp:      lp,
			pending: pq.New(cfg.PendingSet),
			orphans: make(map[pq.Identity]*event.Event),
		}
		o.ectx.o = o
		o.ckpt = statesave.NewCheckpointer(cfg.Checkpoint)
		o.out = cancel.NewManager(cancel.NewSelector(cfg.Cancellation), lp.emitAnti, &lp.st, lp.pool)
		bindObjectHooks(lp, o)
		sh.objs[id] = o
		lp.objs = append(lp.objs, o)
		lp.local[id] = o
	}
	for _, lp := range lps {
		lp.sched = pq.NewScheduleHeap(len(lp.objs))
	}
	return lps
}

// TestExecuteLoopZeroAlloc pins the tentpole contract end to end: with every
// optional facet disabled (the DefaultConfig baseline — periodic
// checkpointing, static aggressive cancellation, no aggregation, no codec,
// no audit/trace/balance), the steady-state execute loop — scheduler pop,
// event execution, intra-LP routing through the cancellation manager and
// event pool, deferred delivery, periodic checkpoints, and fossil collection
// at GVT — performs zero heap allocations per event.
func TestExecuteLoopZeroAlloc(t *testing.T) {
	lp := newAllocHarness()
	step := func() {
		lp.drainDeferred()
		slot, tm := lp.sched.Min()
		if slot < 0 || tm == vtime.PosInf {
			panic("alloc harness drained")
		}
		o := lp.objs[slot]
		o.executeNext()
		lp.refresh(o)
	}
	// One measured round: a burst of executions, then a GVT application so
	// every history structure (processed queues, output records, snapshots,
	// the pool free list) cycles at its steady capacity.
	round := func() {
		for i := 0; i < 64; i++ {
			step()
		}
		lp.applyGVT(lp.localMin())
	}
	for i := 0; i < 16; i++ {
		round() // warm every slice, map and pool to steady capacity
	}
	if n := testing.AllocsPerRun(64, round); n != 0 {
		t.Errorf("steady-state execute loop allocated %.2f times per 64-event round, want 0", n)
	}
}

// TestExecuteLoopZeroAllocObserved re-measures the same steady-state loop
// with the observation layer attached — a bound trace ring and roughness
// sampler, exactly what twsim -trace wires up. The LP-side observation cost
// (LVT store per event, depth-histogram adds, progress-board stores at GVT)
// must stay allocation-free too: observation never buys insight with hot-path
// garbage.
func TestExecuteLoopZeroAllocObserved(t *testing.T) {
	lp := newAllocHarness()
	tr := telemetry.NewTracer(1 << 10)
	tr.Bind(1, time.Now())
	lp.tr = tr.LP(0)
	obs := newTestSampler()
	obs.Bind(lp.k.progress, tr.System())
	lp.obs = obs
	step := func() {
		lp.drainDeferred()
		slot, tm := lp.sched.Min()
		if slot < 0 || tm == vtime.PosInf {
			panic("alloc harness drained")
		}
		o := lp.objs[slot]
		o.executeNext()
		lp.refresh(o)
		lp.obs.PublishLVT(lp.id, int64(o.lvt))
	}
	round := func() {
		for i := 0; i < 64; i++ {
			step()
		}
		obs.RecordRollback(3) // the rollback path's histogram hook
		lp.applyGVT(lp.localMin())
	}
	for i := 0; i < 16; i++ {
		round()
	}
	if n := testing.AllocsPerRun(64, round); n != 0 {
		t.Errorf("observed execute loop allocated %.2f times per 64-event round, want 0", n)
	}
}

// newTestSampler returns a bound-ready sampler whose ticker never fires, so
// only the LP-side hooks are measured.
func newTestSampler() *observe.Sampler { return observe.NewSampler(time.Hour) }

// TestExecuteLoopZeroAllocAdaptiveOptimism re-measures the steady-state loop
// with the adaptive optimism controller armed on top of the observation
// layer, firing at every GVT application. Injected waste on alternate rounds
// forces the window to move every round — the store-trace-account path, not
// just the hold path — and none of it may allocate: the sixth facet rides
// the same zero-garbage contract as the rest of the hot path.
func TestExecuteLoopZeroAllocAdaptiveOptimism(t *testing.T) {
	lp := newAllocHarness()
	tr := telemetry.NewTracer(1 << 10)
	tr.Bind(1, time.Now())
	lp.tr = tr.LP(0)
	obs := newTestSampler()
	obs.Bind(lp.k.progress, tr.System())
	lp.obs = obs
	optCfg := OptimismConfig{
		Mode: OptimismAdaptive, Window: 100, Min: 50, Max: 100,
		Period: 1, HighWater: 0.3, LowWater: 0.1, Factor: 2, MinSample: 1,
	}.withDefaults(0)
	lp.k.optAdaptive = true
	lp.k.optWin.Store(int64(optCfg.Window))
	lp.opt = newOptController(optCfg)

	step := func() {
		lp.drainDeferred()
		slot, tm := lp.sched.Min()
		if slot < 0 || tm == vtime.PosInf {
			panic("alloc harness drained")
		}
		o := lp.objs[slot]
		o.executeNext()
		lp.refresh(o)
		lp.obs.PublishLVT(lp.id, int64(o.lvt))
	}
	rounds := 0
	round := func() {
		for i := 0; i < 64; i++ {
			step()
		}
		if rounds%2 == 0 {
			lp.st.EventsRolledBack += 48 // synthetic waste: forces a tighten
		}
		rounds++
		lp.applyGVT(lp.localMin())
	}
	for i := 0; i < 16; i++ {
		round()
	}
	before := lp.st.OptimismAdjustments
	if n := testing.AllocsPerRun(64, round); n != 0 {
		t.Errorf("adaptive-optimism execute loop allocated %.2f times per 64-event round, want 0", n)
	}
	if lp.st.OptimismAdjustments == before {
		t.Fatal("controller never moved the window; measurement is vacuous")
	}
}

// TestExecutePathAllocationBudget is the facets-enabled companion: with
// dynamic cancellation, dynamic checkpointing and the delta+lz state codec
// all on, the marginal allocation cost per committed event (long run minus
// short run, so setup is excluded) must stay under a small budget. The codec
// path legitimately allocates (Pack returns fresh slices that snapshots
// retain), so the bound is a cap, not zero.
func TestExecutePathAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget measurement skipped in -short mode")
	}
	runOnce := func(end vtime.Time) (mallocs uint64, events int64) {
		m := phold.New(phold.Config{
			Objects: 8, TokensPerObject: 2, MeanDelay: 10,
			Locality: 1, LPs: 1, Seed: 5, StatePadding: 256,
		})
		cfg := DefaultConfig(end)
		cfg.Cancellation = cancel.Config{Mode: cancel.Dynamic, FilterDepth: 16}
		cfg.Checkpoint = statesave.Config{
			Mode: statesave.Dynamic, Interval: 4, MinInterval: 1, MaxInterval: 64, Period: 256,
		}
		cfg.Codec = codec.Config{Mode: codec.Delta, Compression: codec.LZ}.WithDefaults()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		res, err := Run(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return ms.Mallocs - m0, res.Stats.EventsCommitted
	}
	shortAllocs, shortEvents := runOnce(3_000)
	longAllocs, longEvents := runOnce(30_000)
	if longEvents <= shortEvents {
		t.Fatalf("long run committed %d events, short %d; cannot take a marginal measurement",
			longEvents, shortEvents)
	}
	perEvent := float64(longAllocs-shortAllocs) / float64(longEvents-shortEvents)
	t.Logf("marginal allocations: %.2f per committed event (facets enabled)", perEvent)
	// Measured ~0.2 on the machine that recorded the baselines; the budget
	// leaves room for GVT-cycle and scheduler wall-clock variance while
	// still catching any real per-event regression.
	const budget = 4.0
	if perEvent > budget {
		t.Errorf("facets-enabled execute path allocates %.2f per event, budget %.1f", perEvent, budget)
	}
}

// TestWorkerPoolAllocationBudget pins the pool engine to the same marginal
// per-event allocation discipline as the goroutine engine: spillbox delivery,
// schedule-heap churn and worker wakeups must not reintroduce per-event
// garbage. Sparse PHOLD keeps the model side allocation-free; the bound is a
// cap (spillbox slices grow amortized, per-worker pools warm up), not zero.
func TestWorkerPoolAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget measurement skipped in -short mode")
	}
	runOnce := func(end vtime.Time) (mallocs uint64, events int64) {
		m := phold.New(phold.Config{
			Objects: 32, TokensPerObject: 2, MeanDelay: 10,
			Locality: 0.8, LPs: 8, Seed: 5, Sparse: true,
		})
		cfg := DefaultConfig(end)
		cfg.Workers = 2
		cfg.Checkpoint = statesave.Config{Mode: statesave.Periodic, Interval: 4}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		res, err := Run(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return ms.Mallocs - m0, res.Stats.EventsCommitted
	}
	shortAllocs, shortEvents := runOnce(3_000)
	longAllocs, longEvents := runOnce(30_000)
	if longEvents <= shortEvents {
		t.Fatalf("long run committed %d events, short %d; cannot take a marginal measurement",
			longEvents, shortEvents)
	}
	perEvent := float64(longAllocs-shortAllocs) / float64(longEvents-shortEvents)
	t.Logf("marginal allocations: %.2f per committed event (worker pool)", perEvent)
	const budget = 4.0
	if perEvent > budget {
		t.Errorf("worker-pool execute path allocates %.2f per event, budget %.1f", perEvent, budget)
	}
}
