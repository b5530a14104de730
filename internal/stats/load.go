package stats

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"gowarp/internal/partition"
)

// LoadBoard is the per-object half of the load-balancing controller's
// observation channel: each LP publishes batched per-object execution
// counts and per-pair communication counts at GVT application points (never
// on the event hot path), and the balancing LP snapshots the board when its
// control period fires. Per-LP progress comes from the run's progress board
// (observe.Board), not from here. Execution cells are atomics so publishers
// never contend; the edge map is mutex-guarded because publishes are rare
// (once per GVT cycle per LP).
type LoadBoard struct {
	objExec []atomic.Int64 // executed events per object, cumulative

	mu    sync.Mutex
	edges map[uint64]int64 // EdgeKey(a,b) → events exchanged, cumulative
}

// NewLoadBoard returns a board for objects simulation objects.
func NewLoadBoard(objects int) *LoadBoard {
	return &LoadBoard{
		objExec: make([]atomic.Int64, objects),
		edges:   make(map[uint64]int64),
	}
}

// EdgeKey packs an unordered object pair into one map key. Publishers and the
// board agree on this scheme so per-LP recorders can accumulate locally and
// merge in one pass.
func EdgeKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// Publish folds one LP's accumulated deltas into the board: execDelta is
// indexed by object ID (zero entries are skipped) and edges maps EdgeKey to
// the events exchanged since the LP's previous publish. Safe for concurrent
// use by all LPs.
func (b *LoadBoard) Publish(execDelta []int64, edges map[uint64]int64) {
	for obj, n := range execDelta {
		if n != 0 {
			b.objExec[obj].Add(n)
		}
	}
	if len(edges) > 0 {
		b.mu.Lock()
		for k, n := range edges {
			b.edges[k] += n
		}
		b.mu.Unlock()
	}
}

// LoadSample is a point-in-time copy of the board. Samples subtract
// (Sub) so the balancer can observe a window rather than the whole run.
type LoadSample struct {
	ObjExec []int64
	edges   map[uint64]int64
}

// Snapshot copies the board's current cumulative counts.
func (b *LoadBoard) Snapshot() LoadSample {
	s := LoadSample{
		ObjExec: make([]int64, len(b.objExec)),
		edges:   make(map[uint64]int64),
	}
	for i := range b.objExec {
		s.ObjExec[i] = b.objExec[i].Load()
	}
	b.mu.Lock()
	for k, n := range b.edges {
		s.edges[k] = n
	}
	b.mu.Unlock()
	return s
}

// Sub returns the windowed sample s − base (elementwise; edges present only
// in s keep their full count).
func (s LoadSample) Sub(base LoadSample) LoadSample {
	d := LoadSample{
		ObjExec: slices.Clone(s.ObjExec),
		edges:   make(map[uint64]int64),
	}
	for i, n := range base.ObjExec {
		d.ObjExec[i] -= n
	}
	for k, n := range s.edges {
		if dn := n - base.edges[k]; dn != 0 {
			d.edges[k] = dn
		}
	}
	return d
}

// Edges renders the sample's communication counts as measured edges, sorted
// by key so downstream consumers are deterministic.
func (s LoadSample) Edges() []partition.MeasuredEdge {
	keys := make([]uint64, 0, len(s.edges))
	for k := range s.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]partition.MeasuredEdge, len(keys))
	for i, k := range keys {
		out[i] = partition.MeasuredEdge{
			A: int(int32(k >> 32)),
			B: int(int32(uint32(k))),
			W: float64(s.edges[k]),
		}
	}
	return out
}
