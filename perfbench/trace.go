package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// spanKind names a seam the traced run times.
type spanKind uint8

const (
	spanBuild    spanKind = iota // bench.build: model construction
	spanCoreRun                  // core.run: one gowarp.Run call
	spanSeqRun                   // seq.run: one gowarp.RunSequential call
	spanExecute                  // apps.execute: model.Object.Execute
	spanCoreSend                 // core.send: model.Context.Send, child of apps.execute
	spanCopy                     // statesave.copy: model.State Clone / CopyInto
	spanMarshal                  // codec.marshal: MarshalState / UnmarshalState
	spanCommSend                 // comm.send: comm.Transport.Send
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"bench.build", "core.run", "seq.run", "apps.execute", "core.send",
	"statesave.copy", "codec.marshal", "comm.send",
}

func (k spanKind) String() string { return spanNames[k] }

// span is one recorded interval. Times are nanoseconds since the tracer's
// epoch; Parent is 0 for a root span. LP is -1 for spans outside any LP.
type span struct {
	ID     uint64   `json:"id"`
	Parent uint64   `json:"parent"`
	Kind   spanKind `json:"-"`
	LP     int32    `json:"lp"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
}

// agg is the running account of one span kind: calls, total duration and
// self time (duration minus the part its children cover).
type agg struct {
	Count, TotalNs, SelfNs int64
}

func (a *agg) add(o agg) {
	a.Count += o.Count
	a.TotalNs += o.TotalNs
	a.SelfNs += o.SelfNs
}

// coverage accumulates the union of child intervals clipped to a parent.
// Children must be added in non-decreasing start order, which holds for the
// children of one span: they run on the parent's goroutine, one after
// another.
type coverage struct {
	cursor, hi int64 // covered up to cursor; the parent ends at hi
	covered    int64
}

func newCoverage(lo, hi int64) coverage { return coverage{cursor: lo, hi: hi} }

func (c *coverage) add(s, e int64) {
	if s < c.cursor {
		s = c.cursor
	}
	if e > c.hi {
		e = c.hi
	}
	if e <= s {
		return
	}
	c.covered += e - s
	c.cursor = e
}

// ringCap bounds the raw spans kept per LP; aggregates cover every span.
const ringCap = 256

// lpTrace is one LP's span store. The mutex makes it safe whichever
// goroutine the kernel runs the LP on; it is uncontended in practice.
type lpTrace struct {
	mu   sync.Mutex
	lp   int32
	next uint64
	aggs [numSpanKinds]agg
	ring []span
	seen int64
	// open is the LP's open core.send span, the parent of a comm.send
	// issued inside it; openCover accumulates that child time.
	open      uint64
	openCover coverage
	// Seam counters the replays size themselves from.
	initSends, sends, payloadBytes int64
}

// tracer records spans at the benchmark's seams into bounded per-LP stores.
// A nil *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	epoch time.Time
	lps   []*lpTrace
	root  *lpTrace // spans outside any LP
	sims  int      // traced simulations recorded
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), root: &lpTrace{lp: -1}}
}

// ensureLPs sizes the per-LP stores for a model of n LPs and counts one more
// traced simulation. Call it before the simulation starts.
func (t *tracer) ensureLPs(n int) {
	for i := len(t.lps); i < n; i++ {
		t.lps = append(t.lps, &lpTrace{lp: int32(i)})
	}
	t.sims++
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) of(lp int32) *lpTrace {
	if lp < 0 || int(lp) >= len(t.lps) {
		return t.root
	}
	return t.lps[lp]
}

// newID returns a span ID unique across LPs: the LP in the top bits.
func (l *lpTrace) newID() uint64 {
	l.mu.Lock()
	l.next++
	id := uint64(l.lp+1)<<40 | l.next
	l.mu.Unlock()
	return id
}

// record files a finished span whose children covered childNs of it.
func (l *lpTrace) record(s span, childNs int64) {
	l.mu.Lock()
	l.recordLocked(s, childNs)
	l.mu.Unlock()
}

func (l *lpTrace) recordLocked(s span, childNs int64) {
	d := s.End - s.Start
	a := &l.aggs[s.Kind]
	a.Count++
	a.TotalNs += d
	a.SelfNs += d - childNs
	// Keep the first ringCap spans, then every 64th over a sliding ring.
	if len(l.ring) < ringCap {
		l.ring = append(l.ring, s)
	} else if l.seen%64 == 0 {
		l.ring[(l.seen/64)%ringCap] = s
	}
	l.seen++
}

// begin opens a span of kind k on lp under parent.
func (t *tracer) begin(k spanKind, lp int32, parent uint64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.of(lp).newID(), Parent: parent, Kind: k, LP: lp, Start: t.now()}
}

// end closes s, whose children covered childNs of it.
func (t *tracer) end(s span, childNs int64) {
	if t == nil {
		return
	}
	s.End = t.now()
	t.of(s.LP).record(s, childNs)
}

// beginSend opens a core.send span on lp as a child of parent.
func (t *tracer) beginSend(lp int32, parent uint64, payload int) span {
	l := t.of(lp)
	id := l.newID()
	s := span{ID: id, Parent: parent, Kind: spanCoreSend, LP: lp, Start: t.now()}
	l.mu.Lock()
	l.open = id
	l.openCover = newCoverage(s.Start, 1<<62)
	l.sends++
	l.payloadBytes += int64(payload)
	l.mu.Unlock()
	return s
}

// endSend closes a core.send span and returns the interval it covered, for
// its parent's self time.
func (t *tracer) endSend(s span) (start, end int64) {
	l := t.of(s.LP)
	s.End = t.now()
	l.mu.Lock()
	child := l.openCover.covered
	l.open = 0
	l.recordLocked(s, child)
	l.mu.Unlock()
	return s.Start, s.End
}

// endCommSend closes a comm.send span, as a child of its LP's open
// core.send span when there is one.
func (t *tracer) endCommSend(s span) {
	l := t.of(s.LP)
	s.End = t.now()
	l.mu.Lock()
	s.Parent = l.open
	if l.open != 0 {
		l.openCover.add(s.Start, s.End)
	}
	l.recordLocked(s, 0)
	l.mu.Unlock()
}

// totals merges every LP's aggregates.
func (t *tracer) totals() [numSpanKinds]agg {
	var out [numSpanKinds]agg
	for _, l := range append([]*lpTrace{t.root}, t.lps...) {
		l.mu.Lock()
		for k := range out {
			out[k].add(l.aggs[k])
		}
		l.mu.Unlock()
	}
	return out
}

// seamCounts returns the initial sends per LP per simulation, the pending
// population a workload's LP starts with, and the mean payload bytes per
// Context.Send.
func (t *tracer) seamCounts() (initPerLP float64, meanPayload float64) {
	var init, sends, bytes int64
	for _, l := range t.lps {
		l.mu.Lock()
		init += l.initSends
		sends += l.sends
		bytes += l.payloadBytes
		l.mu.Unlock()
	}
	return ratio(float64(init), float64(len(t.lps)*t.sims)), ratio(float64(bytes), float64(sends))
}

// writeSpans writes the sampled raw spans to path as JSON lines, replacing
// any earlier run's.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range append([]*lpTrace{t.root}, t.lps...) {
		l.mu.Lock()
		for _, s := range l.ring {
			if err := enc.Encode(struct {
				Name string `json:"name"`
				span
			}{s.Kind.String(), s}); err != nil {
				l.mu.Unlock()
				f.Close()
				return err
			}
		}
		l.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
