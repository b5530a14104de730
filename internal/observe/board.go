package observe

import "sync/atomic"

// Progress is one LP's row of the progress board: the GVT it last applied
// and its cumulative event counters at that application.
type Progress struct {
	GVT        int64
	Processed  int64
	Committed  int64
	RolledBack int64
	Rollbacks  int64
}

// progressSlot holds one LP's row in atomics, padded to a 64-byte cache
// line so LPs publishing side by side never share one.
type progressSlot struct {
	gvt, processed, committed, rolledBack, rollbacks atomic.Int64
	_                                                [64 - 5*8]byte
}

// Board is the run's per-LP progress board (see the package comment). Each
// LP overwrites its own row once per GVT application. A row is written
// field by field, so a concurrent reader may see fields from two successive
// applications; every reader tolerates that skew.
type Board struct {
	slots []progressSlot
}

// NewBoard returns a board for numLPs logical processes. GVT fields start
// at the unpublished sentinel (vtime.NegInf) until their LP's first
// application.
func NewBoard(numLPs int) *Board {
	b := &Board{slots: make([]progressSlot, numLPs)}
	for i := range b.slots {
		b.slots[i].gvt.Store(unpublished)
	}
	return b
}

// Publish overwrites LP lp's row: five atomic stores, no allocation.
func (b *Board) Publish(lp int, p Progress) {
	s := &b.slots[lp]
	s.gvt.Store(p.GVT)
	s.processed.Store(p.Processed)
	s.committed.Store(p.Committed)
	s.rolledBack.Store(p.RolledBack)
	s.rollbacks.Store(p.Rollbacks)
}

// Load returns LP lp's row.
func (b *Board) Load(lp int) Progress {
	s := &b.slots[lp]
	return Progress{
		GVT:        s.gvt.Load(),
		Processed:  s.processed.Load(),
		Committed:  s.committed.Load(),
		RolledBack: s.rolledBack.Load(),
		Rollbacks:  s.rollbacks.Load(),
	}
}

// Totals sums the counters over every row; GVT is the latest (largest)
// estimate any LP has applied. Atomic loads only, no allocation.
func (b *Board) Totals() Progress {
	t := Progress{GVT: unpublished}
	for i := range b.slots {
		p := b.Load(i)
		t.GVT = max(t.GVT, p.GVT)
		t.Processed += p.Processed
		t.Committed += p.Committed
		t.RolledBack += p.RolledBack
		t.Rollbacks += p.Rollbacks
	}
	return t
}
