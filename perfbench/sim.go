package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"gowarp"
)

// errDeadline marks a simulation that did not return within its deadline.
var errDeadline = errors.New("simulation passed its deadline")

// withDeadline runs f and waits at most d for it. gowarp.Run cannot be
// cancelled, so on a timeout f's goroutine is left running: the caller stops
// measuring and the process exit ends it.
func withDeadline[T any](d time.Duration, f func() T) (T, error) {
	done := make(chan T, 1)
	go func() { done <- f() }()
	select {
	case v := <-done:
		return v, nil
	case <-time.After(d):
		var zero T
		return zero, errDeadline
	}
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	cpu     time.Duration // user + system CPU
	mallocs uint64
	bytes   uint64
	gcCPU   float64 // Go runtime's GC CPU-seconds estimate
	busyCPU float64 // Go runtime's non-idle CPU-seconds estimate
}

var cpuMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only on a bad pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuMetrics))
	for i, n := range cpuMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcCPU:   s[0].Value.Float64(),
		busyCPU: s[1].Value.Float64() - s[2].Value.Float64(),
	}
}

func (u usage) sub(o usage) usage {
	return usage{u.cpu - o.cpu, u.mallocs - o.mallocs, u.bytes - o.bytes, u.gcCPU - o.gcCPU, u.busyCPU - o.busyCPU}
}

// peakRSSMiB returns the process's peak resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// verdict is what the correctness gate compares.
type verdict struct {
	committed int64
	hash      uint64
	err       error
}

// parSim is one measured gowarp.Run.
type parSim struct {
	seed   uint64
	traced bool
	build  time.Duration // model construction
	wall   time.Duration // gowarp.Run wall time
	use    usage         // counters across gowarp.Run
	res    *gowarp.Result
	verdict
}

func (p *parSim) rate() float64 {
	return ratio(float64(p.res.Stats.EventsCommitted), p.res.Elapsed.Seconds())
}

// setup is the time spent outside the parallel phase: model construction
// plus what gowarp.Run spends before and after it.
func (p *parSim) setup() time.Duration { return p.build + p.wall - p.res.Elapsed }

// runPar builds w's model for seed and runs it on the parallel kernel. With
// tr set, the model's seams (and the transport, on the default engine) are
// decorated to record spans into tr. Final states are hashed and dropped.
func runPar(w workload, seed uint64, tr *tracer) parSim {
	p := parSim{seed: seed, traced: tr != nil}
	b := tr.begin(spanBuild, -1, 0)
	t0 := time.Now()
	m := w.model(seed)
	p.build = time.Since(t0)
	tr.end(b, 0)
	cfg := w.config()
	if tr != nil {
		tr.ensureLPs(m.NumLPs())
		m = traceModel(m, tr)
		if !w.pool() {
			cfg.Transport = &tracedTransport{
				Transport: gowarp.NewInProcTransport(m.NumLPs(),
					gowarp.WithTransportCost(cfg.Cost), gowarp.WithTransportInboxDepth(cfg.InboxDepth)),
				tr: tr,
			}
		}
	}
	// Start every simulation from a collected heap, so one run's garbage is
	// not charged to the next.
	runtime.GC()
	r := tr.begin(spanCoreRun, -1, 0)
	before := readUsage()
	t0 = time.Now()
	res, err := gowarp.Run(m, cfg)
	p.wall = time.Since(t0)
	p.use = readUsage().sub(before)
	tr.end(r, 0)
	if err != nil {
		p.err = fmt.Errorf("gowarp.Run: %w", err)
		return p
	}
	p.committed = res.Stats.EventsCommitted
	p.hash = gowarp.HashStates(unwrapStates(res.FinalStates))
	res.FinalStates = nil
	p.res = res
	return p
}

// seqSim is one gowarp.RunSequential: the reference for its seed.
type seqSim struct {
	rate float64
	verdict
}

func runSeq(w workload, seed uint64, tr *tracer) seqSim {
	m := w.model(seed)
	runtime.GC()
	s := tr.begin(spanSeqRun, -1, 0)
	res, err := gowarp.RunSequential(m, w.config().EndTime)
	tr.end(s, 0)
	if err != nil {
		return seqSim{verdict: verdict{err: fmt.Errorf("gowarp.RunSequential: %w", err)}}
	}
	return seqSim{
		rate:    ratio(float64(res.EventsExecuted), res.Elapsed.Seconds()),
		verdict: verdict{committed: res.EventsExecuted, hash: gowarp.HashStates(res.FinalStates)},
	}
}

// gate checks a parallel simulation against the sequential reference for the
// same seed: no error, the same committed count and the same final-state
// hash.
func gate(par, ref verdict) error {
	switch {
	case par.err != nil:
		return par.err
	case ref.err != nil:
		return fmt.Errorf("reference: %w", ref.err)
	case par.committed != ref.committed:
		return fmt.Errorf("committed %d events, sequential reference %d", par.committed, ref.committed)
	case par.hash != ref.hash:
		return fmt.Errorf("final-state hash %#x, sequential reference %#x", par.hash, ref.hash)
	}
	return nil
}

// tally counts simulations attempted and failed, and says why each failed.
type tally struct {
	attempted, failed int
	reasons           []string
}

// add records one checked simulation.
func (t *tally) add(workload string, seed uint64, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.reasons = append(t.reasons, fmt.Sprintf("FAIL workload=%s seed=%d: %v", workload, seed, err))
	}
}

// failedShare is failed_share: failed simulations over attempted ones.
func (t *tally) failedShare() float64 { return ratio(float64(t.failed), float64(t.attempted)) }
