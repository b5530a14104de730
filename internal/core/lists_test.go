package core_test

import (
	"testing"

	"gowarp/internal/apps/phold"
	"gowarp/internal/audit"
	"gowarp/internal/cancel"
	"gowarp/internal/core"
)

// TestSparseIdleObjectsMatchSequential runs a sparse PHOLD whose hot spot
// pulls nearly every token onto object 0, so most of its 20,000 objects go
// idle after their first few events and drop off their LPs' history lists
// while a few stay busy — on the worker pool, under lazy cancellation and a
// static optimism window, with the auditor checking the lists at every GVT.
// It must commit exactly the sequential event count and final-state hash.
func TestSparseIdleObjectsMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("20,000-object run skipped in -short mode")
	}
	m := phold.New(phold.Config{
		Objects: 20_000, TokensPerObject: 1, MeanDelay: 10, Locality: 0.5,
		LPs: 8, Seed: 11, Sparse: true, HotSpot: 0.9,
	})
	cfg := testConfig(40)
	cfg.Workers = 2
	cfg.Cancellation = cancel.Config{Mode: cancel.StaticLazy}
	seq, err := core.RunSequential(m, cfg.EndTime, 0)
	if err != nil {
		t.Fatal(err)
	}
	par := assertMatchesSequential(t, m, cfg)
	if got, want := audit.HashStates(par.FinalStates), audit.HashStates(seq.FinalStates); got != want {
		t.Errorf("final-state hash %#x, sequential %#x", got, want)
	}
}

// TestBalancedLazyMigrationMatchesSequential migrates objects between LPs on
// the default engine while lazy cancellation parks their outputs: the
// auditor checks at every GVT that each object's history and parked outputs
// are on its current host's lists, and the run must match the sequential
// kernel, so outputs parked before a move are drained after it.
func TestBalancedLazyMigrationMatchesSequential(t *testing.T) {
	m := testModel(7)
	skewPartition(m.Partition, 4)
	cfg := balanceConfig(2400)
	cfg.Cancellation = cancel.Config{Mode: cancel.StaticLazy}
	res := assertMatchesSequential(t, m, cfg)
	if res.Stats.Migrations == 0 {
		t.Error("no object migrated; the test exercised nothing")
	}
	if res.Stats.LazyMisses == 0 {
		t.Error("no parked output was ever cancelled; the test exercised nothing")
	}
}
