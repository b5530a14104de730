package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"gowarp"
	"gowarp/internal/model"
)

func TestPercentileSelection(t *testing.T) {
	if got := percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := percentile([]float64{4, 1, 3, 2}, 50); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted input
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (nearest rank)", got)
	}

	// The reported tail is the highest percentile with >= 10 samples
	// beyond it: none below 100 samples, p90 from 100, p99 from 1000.
	for _, c := range []struct {
		n     int
		tailP float64
	}{{19, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		ys := make([]float64, c.n)
		for i := range ys {
			ys[i] = float64(i)
		}
		s := summarize(ys)
		if s.TailP != c.tailP || s.Samples != c.n {
			t.Errorf("n=%d: tail p%v with %d samples, want p%v", c.n, s.TailP, s.Samples, c.tailP)
		}
	}

	line := metric{"committed_ev_per_s", "ev/s", summarize([]float64{1, 2, 3})}.String()
	if !strings.Contains(line, "n=3") || !strings.Contains(line, "ev/s") {
		t.Errorf("metric line %q lacks its unit or sample count", line)
	}
}

// selfTimes is the reference self-time rule the tracer implements online:
// a span's self time is its duration minus the union of its own children's
// intervals, clipped to it. Only the Parent link decides what is a child, so
// spans of other LPs that overlap in time are never subtracted.
func selfTimes(spans []span) map[uint64]int64 {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		c := newCoverage(s.Start, s.End)
		for _, k := range ch {
			c.add(k.Start, k.End)
		}
		out[s.ID] = s.End - s.Start - c.covered
	}
	return out
}

func TestSelfTimeOverlappingChildrenAcrossLPs(t *testing.T) {
	spans := []span{
		// LP 0: an execute span with two overlapping sends; their union
		// [10,50) is 40 ns.
		{ID: 1, Kind: spanExecute, LP: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Kind: spanCoreSend, LP: 0, Start: 10, End: 30},
		{ID: 3, Parent: 1, Kind: spanCoreSend, LP: 0, Start: 20, End: 50},
		// LP 1 runs at the same time. Its child overruns its parent and is
		// clipped; it lies inside LP 0's span but must not reduce it.
		{ID: 4, Kind: spanExecute, LP: 1, Start: 5, End: 60},
		{ID: 5, Parent: 4, Kind: spanCoreSend, LP: 1, Start: 40, End: 70},
		// A comm.send nested in LP 0's first send.
		{ID: 6, Parent: 2, Kind: spanCommSend, LP: 0, Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 60, 2: 14, 3: 30, 4: 35, 5: 30, 6: 6}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}

	// The tracer's online accounting agrees with the rule on spans it
	// records itself: executes with sends on two LPs, one send carrying a
	// transport send, and a root-level transport send (an aggregate flush).
	tr := newTracer()
	tr.ensureLPs(2)
	for lp := int32(0); lp < 2; lp++ {
		for i := 0; i < 3; i++ {
			ex := tr.begin(spanExecute, lp, 0)
			cover := newCoverage(ex.Start, 1<<62)
			for j := 0; j < 2; j++ {
				snd := tr.beginSend(lp, ex.ID, 8)
				if j == 1 {
					tr.endCommSend(tr.begin(spanCommSend, lp, 0))
				}
				cover.add(tr.endSend(snd))
			}
			tr.end(ex, cover.covered)
		}
		tr.endCommSend(tr.begin(spanCommSend, lp, 0))
	}
	var recorded []span
	for _, l := range tr.lps {
		recorded = append(recorded, l.ring...)
	}
	ref := selfTimes(recorded)
	var wantKind [numSpanKinds]int64
	for _, sp := range recorded {
		wantKind[sp.Kind] += ref[sp.ID]
	}
	got := tr.totals()
	for k := spanKind(0); k < numSpanKinds; k++ {
		if got[k].SelfNs != wantKind[k] {
			t.Errorf("%s: online self time %d ns, reference rule %d ns", k, got[k].SelfNs, wantKind[k])
		}
	}
	if got[spanCommSend].Count != 8 || got[spanExecute].Count != 6 {
		t.Errorf("recorded %d comm.send and %d apps.execute spans, want 8 and 6",
			got[spanCommSend].Count, got[spanExecute].Count)
	}
}

func TestFailedShareCounting(t *testing.T) {
	var ta tally
	ref := verdict{committed: 100, hash: 0xABC}
	ta.add("w", 1, gate(verdict{committed: 100, hash: 0xABC}, ref))
	ta.add("w", 2, gate(verdict{committed: 100, hash: 0xABC}, verdict{committed: 100, hash: 0xBAD}))
	ta.add("w", 3, gate(verdict{committed: 99, hash: 0xABC}, ref))

	_, err := withDeadline(10*time.Millisecond, func() int {
		time.Sleep(time.Second)
		return 0
	})
	if !errors.Is(err, errDeadline) {
		t.Fatalf("stub past its deadline returned %v, want errDeadline", err)
	}
	ta.add("w", 4, err)

	if ta.attempted != 4 || ta.failed != 3 || ta.failedShare() != 0.75 {
		t.Errorf("tally = %d attempted, %d failed, share %v; want 4, 3, 0.75",
			ta.attempted, ta.failed, ta.failedShare())
	}
	for _, r := range ta.reasons {
		if !strings.Contains(r, "workload=w seed=") {
			t.Errorf("failure %q does not name its workload and seed", r)
		}
	}
	if v, err := withDeadline(time.Second, func() int { return 7 }); err != nil || v != 7 {
		t.Errorf("prompt function: %v, %v", v, err)
	}
}

// Stub states with each combination of the optional interfaces.
type plainState struct{ v int }

func (s *plainState) Clone() gowarp.State { c := *s; return &c }

type fullState struct{ plainState }

func (s *fullState) Clone() gowarp.State { c := *s; return &c }
func (s *fullState) CopyInto(dst gowarp.State) gowarp.State {
	*dst.(*fullState) = *s
	return dst
}
func (s *fullState) MarshalState(buf []byte) []byte { return append(buf, byte(s.v)) }
func (s *fullState) UnmarshalState(data []byte) (gowarp.State, error) {
	return &fullState{plainState{int(data[0])}}, nil
}
func (s *fullState) StateBytes() int { return 8 }

type sizedState struct{ plainState }

func (s *sizedState) Clone() gowarp.State { c := *s; return &c }
func (s *sizedState) StateBytes() int     { return 8 }

func TestWrappedStateKeepsInterfaces(t *testing.T) {
	tr := newTracer()
	tr.ensureLPs(1)
	for _, st := range []gowarp.State{&plainState{1}, &fullState{plainState{2}}, &sizedState{plainState{3}}} {
		w := wrapState(st, 0, tr)
		_, r1 := st.(model.Reusable)
		_, r2 := w.(model.Reusable)
		_, d1 := st.(gowarp.DeltaState)
		_, d2 := w.(gowarp.DeltaState)
		_, z1 := st.(byteSizer)
		_, z2 := w.(byteSizer)
		if r1 != r2 || d1 != d2 || z1 != z2 {
			t.Errorf("%T: wrapped interfaces (%v %v %v), inner (%v %v %v)", st, r2, d2, z2, r1, d1, z1)
		}
		if unwrapState(w.Clone()) == st {
			t.Errorf("%T: Clone returned the same inner state", st)
		}
	}

	// CopyInto refills the destination wrapper; Unmarshal returns a wrapper.
	a, b := wrapState(&fullState{plainState{5}}, 0, tr), wrapState(&fullState{plainState{6}}, 0, tr)
	if got := a.(model.Reusable).CopyInto(b); got != b || unwrapState(b).(*fullState).v != 5 {
		t.Errorf("CopyInto did not refill the destination wrapper")
	}
	u, err := a.(gowarp.DeltaState).UnmarshalState(a.(gowarp.DeltaState).MarshalState(nil))
	if err != nil || unwrapState(u).(*fullState).v != 5 || u == unwrapState(u) {
		t.Errorf("UnmarshalState round trip: %v, %v", u, err)
	}
	spans := tr.totals()
	// Three Clones and one CopyInto; one Marshal and one Unmarshal.
	if spans[spanCopy].Count != 4 || spans[spanMarshal].Count != 2 {
		t.Errorf("recorded %d copy and %d marshal spans, want 4 and 2",
			spans[spanCopy].Count, spans[spanMarshal].Count)
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (e2e, layer []string) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec struct {
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
	}
	var ws []string
	for _, w := range spec.Workloads {
		ws = append(ws, w.Name)
	}
	var have []string
	for _, w := range workloads(full) {
		have = append(have, w.name)
	}
	if strings.Join(ws, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", ws, have)
	}
	return e2e, layer
}

func byName(ms []metric) map[string]metric {
	out := map[string]metric{}
	for _, m := range ms {
		out[m.name] = m
	}
	return out
}

func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2eNames, layerNames := benchmarkNames(t)
	for _, w := range workloads(tiny) {
		t.Run(w.name, func(t *testing.T) {
			o := options{w: w, seed: 7, budget: 200 * time.Millisecond, deadline: 30 * time.Second,
				spans: filepath.Join(t.TempDir(), "spans.jsonl")}

			ms, ta := endToEnd(o)
			if ta.failed != 0 || ta.attempted < minSims {
				t.Fatalf("end to end: %d of %d failed: %v", ta.failed, ta.attempted, ta.reasons)
			}
			got := byName(ms)
			for _, n := range append(e2eNames, "failed_share") {
				m, ok := got[n]
				if !ok {
					t.Errorf("end-to-end metric %s missing", n)
				} else if n != "failed_share" && !(m.Median > 0) {
					t.Errorf("%s = %v, want > 0", n, m.Median)
				}
			}

			ms, ta, err := perLayer(o)
			if err != nil || ta.failed != 0 {
				t.Fatalf("per layer: %v; %d of %d failed: %v", err, ta.failed, ta.attempted, ta.reasons)
			}
			got = byName(ms)
			for _, n := range layerNames {
				if m, ok := got[n]; !ok || math.IsNaN(m.Median) || math.IsInf(m.Median, 0) {
					t.Errorf("per-layer metric %s missing or not finite", n)
				}
			}
			sum := 0.0
			for _, n := range accountShares {
				sum += got[n].Median
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("CPU account sums to %v, want 1", sum)
			}
			if got["apps.execute_ns"].Median <= 0 || got["pq.hold_ns.heap"].Median <= 0 {
				t.Errorf("traced run recorded no execute spans or no pq replay")
			}
			if fi, err := os.Stat(o.spans); err != nil || fi.Size() == 0 {
				t.Errorf("spans file: %v", err)
			}
		})
	}
}
