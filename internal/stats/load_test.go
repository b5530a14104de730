package stats

import (
	"sync"
	"testing"
)

func TestLoadBoardPublishSnapshot(t *testing.T) {
	b := NewLoadBoard(4)
	b.Publish([]int64{5, 3, 0, 0}, map[uint64]int64{EdgeKey(0, 1): 7})
	b.Publish([]int64{0, 0, 2, 1}, map[uint64]int64{EdgeKey(1, 0): 3, EdgeKey(2, 3): 4})

	s := b.Snapshot()
	wantExec := []int64{5, 3, 2, 1}
	for i, w := range wantExec {
		if s.ObjExec[i] != w {
			t.Errorf("ObjExec[%d] = %d, want %d", i, s.ObjExec[i], w)
		}
	}

	// EdgeKey(0,1) and EdgeKey(1,0) must land on the same cell.
	edges := s.Edges()
	if len(edges) != 2 {
		t.Fatalf("Edges = %v, want 2 entries", edges)
	}
	if edges[0].A != 0 || edges[0].B != 1 || edges[0].W != 10 {
		t.Errorf("edge[0] = %+v, want {0 1 10}", edges[0])
	}
	if edges[1].A != 2 || edges[1].B != 3 || edges[1].W != 4 {
		t.Errorf("edge[1] = %+v, want {2 3 4}", edges[1])
	}
}

func TestLoadSampleSub(t *testing.T) {
	b := NewLoadBoard(2)
	b.Publish([]int64{10, 0}, map[uint64]int64{EdgeKey(0, 1): 5})
	base := b.Snapshot()
	b.Publish([]int64{4, 0}, map[uint64]int64{EdgeKey(0, 1): 2})
	b.Publish([]int64{0, 6}, nil)

	d := b.Snapshot().Sub(base)
	if d.ObjExec[0] != 4 || d.ObjExec[1] != 6 {
		t.Errorf("windowed ObjExec = %v, want [4 6]", d.ObjExec)
	}
	edges := d.Edges()
	if len(edges) != 1 || edges[0].W != 2 {
		t.Errorf("windowed Edges = %v, want one edge of weight 2", edges)
	}
}

// TestLoadBoardConcurrentPublish pins the race-freedom contract: all LPs may
// publish while the balancer snapshots.
func TestLoadBoardConcurrentPublish(t *testing.T) {
	const lps, rounds = 4, 200
	b := NewLoadBoard(8)
	var wg sync.WaitGroup
	for lp := 0; lp < lps; lp++ {
		wg.Add(1)
		go func(lp int) {
			defer wg.Done()
			exec := make([]int64, 8)
			for r := 0; r < rounds; r++ {
				for i := range exec {
					exec[i] = int64(i)
				}
				b.Publish(exec, map[uint64]int64{EdgeKey(int32(lp), int32((lp+1)%lps)): 1})
			}
		}(lp)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = b.Snapshot().Edges()
		}
	}()
	wg.Wait()
	<-done
	s := b.Snapshot()
	var total int64
	for _, n := range s.ObjExec {
		total += n
	}
	if want := int64(lps * rounds * 28); total != want { // 0+1+...+7 per publish
		t.Errorf("total executions = %d, want %d", total, want)
	}
	var edges float64
	for _, e := range s.Edges() {
		edges += e.W
	}
	if edges != lps*rounds {
		t.Errorf("total edge weight = %v, want %d", edges, lps*rounds)
	}
}
