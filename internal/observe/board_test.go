package observe

import (
	"sync"
	"testing"
	"unsafe"
)

func TestBoardPublishLoadTotals(t *testing.T) {
	b := NewBoard(3)
	if g := b.Load(2).GVT; g != unpublished {
		t.Errorf("unpublished row GVT = %d, want the sentinel", g)
	}
	b.Publish(0, Progress{GVT: 40, Processed: 8, Committed: 6, RolledBack: 2, Rollbacks: 1})
	b.Publish(1, Progress{GVT: 50, Processed: 3, Committed: 3})

	if p := b.Load(0); p != (Progress{GVT: 40, Processed: 8, Committed: 6, RolledBack: 2, Rollbacks: 1}) {
		t.Errorf("LP0 row = %+v", p)
	}
	// A later publish overwrites the row; rows are cumulative counters, not
	// deltas to accumulate.
	b.Publish(0, Progress{GVT: 60, Processed: 12, Committed: 10, RolledBack: 2, Rollbacks: 1})
	tot := b.Totals()
	if tot.Processed != 15 || tot.Committed != 13 || tot.RolledBack != 2 || tot.Rollbacks != 1 {
		t.Errorf("totals = %+v, want processed 15, committed 13, rolled back 2, rollbacks 1", tot)
	}
	if tot.GVT != 60 {
		t.Errorf("totals GVT = %d, want the latest applied estimate 60", tot.GVT)
	}
}

// TestBoardSlotIsOneCacheLine pins the padding that keeps neighbouring LPs'
// publishes off each other's cache line.
func TestBoardSlotIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(progressSlot{}); n != 64 {
		t.Fatalf("progress slot is %d bytes, want 64", n)
	}
}

// TestBoardConcurrentPublish pins the race-freedom contract: every LP
// publishes its row while readers sum the board.
func TestBoardConcurrentPublish(t *testing.T) {
	const lps, rounds = 4, 200
	b := NewBoard(lps)
	var wg sync.WaitGroup
	for lp := 0; lp < lps; lp++ {
		wg.Add(1)
		go func(lp int) {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				b.Publish(lp, Progress{GVT: int64(r), Processed: int64(3 * r), Committed: int64(2 * r), RolledBack: int64(r), Rollbacks: int64(r)})
			}
		}(lp)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = b.Totals()
		}
	}()
	wg.Wait()
	<-done
	if got := b.Totals().Processed; got != lps*rounds*3 {
		t.Errorf("total processed = %d, want %d", got, lps*rounds*3)
	}
}
