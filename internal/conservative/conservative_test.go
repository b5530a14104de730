package conservative

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"gowarp/internal/apps/phold"
	"gowarp/internal/core"
	"gowarp/internal/event"
	"gowarp/internal/model"
	"gowarp/internal/vtime"
)

func pholdModel(lps int, lookahead int64, seed uint64) *model.Model {
	return phold.New(phold.Config{
		Objects:         16,
		TokensPerObject: 3,
		MeanDelay:       10,
		MinDelay:        lookahead,
		Locality:        0.3,
		LPs:             lps,
		Seed:            seed,
	})
}

func assertMatchesSequential(t *testing.T, m *model.Model, end, lookahead vtime.Time) *Result {
	t.Helper()
	seq, err := core.RunSequential(m, end, 0)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	res, err := Run(m, Config{EndTime: end, Lookahead: lookahead})
	if err != nil {
		t.Fatalf("conservative: %v", err)
	}
	if res.Stats.EventsCommitted != seq.EventsExecuted {
		t.Errorf("committed %d, sequential executed %d", res.Stats.EventsCommitted, seq.EventsExecuted)
	}
	for i := range seq.FinalStates {
		if !reflect.DeepEqual(res.FinalStates[i], seq.FinalStates[i]) {
			t.Errorf("object %d: final states differ\nconservative: %+v\nsequential:   %+v",
				i, res.FinalStates[i], seq.FinalStates[i])
			break
		}
	}
	return res
}

func TestMatchesSequential(t *testing.T) {
	assertMatchesSequential(t, pholdModel(4, 1, 7), 2000, 1)
}

func TestMatchesSequentialAcrossLookaheads(t *testing.T) {
	for _, la := range []int64{1, 5, 20} {
		la := la
		t.Run(fmt.Sprintf("lookahead%d", la), func(t *testing.T) {
			assertMatchesSequential(t, pholdModel(4, la, 11), 1500, vtime.Time(la))
		})
	}
}

func TestMatchesSequentialManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short mode")
	}
	for seed := uint64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			assertMatchesSequential(t, pholdModel(4, 2, seed), 1000, 2)
		})
	}
}

func TestSingleLP(t *testing.T) {
	res := assertMatchesSequential(t, pholdModel(1, 1, 3), 1000, 1)
	if res.NullMessages != 0 {
		t.Errorf("single LP sent %d null messages", res.NullMessages)
	}
}

func TestNullMessageVolumeGrowsWithSmallLookahead(t *testing.T) {
	// The classic CMB pathology: shrinking lookahead multiplies null
	// traffic for the same useful work.
	small, err := Run(pholdModel(4, 1, 5), Config{EndTime: 1500, Lookahead: 1})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Run(pholdModel(4, 20, 5), Config{EndTime: 1500, Lookahead: 20})
	if err != nil {
		t.Fatal(err)
	}
	if small.NullMessages <= large.NullMessages {
		t.Errorf("nulls: lookahead 1 sent %d, lookahead 20 sent %d — expected more with less lookahead",
			small.NullMessages, large.NullMessages)
	}
	t.Logf("null messages: lookahead=1: %d, lookahead=20: %d (events %d)",
		small.NullMessages, large.NullMessages, small.Stats.EventsCommitted)
}

func TestConfigValidation(t *testing.T) {
	m := pholdModel(2, 1, 1)
	if _, err := Run(m, Config{EndTime: 100, Lookahead: 0}); err == nil {
		t.Error("zero lookahead accepted")
	}
	if _, err := Run(m, Config{EndTime: 0, Lookahead: 1}); err == nil {
		t.Error("zero end time accepted")
	}
	bad := &model.Model{Objects: m.Objects, Partition: m.Partition[:2]}
	if _, err := Run(bad, Config{EndTime: 100, Lookahead: 1}); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestLookaheadViolationDetected(t *testing.T) {
	// Declare more lookahead than the model provides: the kernel must fail
	// loudly rather than silently corrupt causality.
	m := pholdModel(2, 1, 9) // true lookahead 1
	_, err := Run(m, Config{EndTime: 2000, Lookahead: 50})
	if err == nil {
		t.Fatal("over-declared lookahead went undetected")
	}
}

func TestEventCostCharged(t *testing.T) {
	m := pholdModel(2, 1, 4)
	fast, err := Run(m, Config{EndTime: 600, Lookahead: 1})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(m, Config{EndTime: 600, Lookahead: 1, EventCost: 30 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Elapsed <= fast.Elapsed {
		t.Errorf("event cost had no effect: %s vs %s", slow.Elapsed, fast.Elapsed)
	}
	if fast.EventRate() <= 0 {
		t.Error("non-positive event rate")
	}
}

// relayObject forwards a hop counter to its peer, one virtual-time unit
// later, until the counter runs out: a finite model whose event population
// drains long before any end time.
type relayObject struct {
	name string
	peer event.ObjectID
}

type relayState struct{ Hops int64 }

func (s *relayState) Clone() model.State { c := *s; return &c }

func (r *relayObject) Name() string              { return r.name }
func (r *relayObject) InitialState() model.State { return &relayState{} }

func (r *relayObject) Init(ctx model.Context, st model.State) {
	if ctx.Self() == 0 {
		ctx.Send(r.peer, 1, 0, []byte{40})
	}
}

func (r *relayObject) Execute(ctx model.Context, st model.State, ev *event.Event) {
	st.(*relayState).Hops++
	if left := ev.Payload[0]; left > 0 {
		ctx.Send(r.peer, 1, 0, []byte{left - 1})
	}
}

// TestEndOfTimeDrains runs a draining model under an unbounded end time:
// nothing past +inf can be "after" it, so termination must also accept a
// run where every LP has drained and every peer promises +inf. The deadline
// turns a regression into a failure instead of a hung test binary.
func TestEndOfTimeDrains(t *testing.T) {
	m := &model.Model{
		Objects:   []model.Object{&relayObject{"relay0", 1}, &relayObject{"relay1", 0}},
		Partition: model.Partition{0, 1},
	}
	done := make(chan *Result, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := Run(m, Config{EndTime: vtime.PosInf, Lookahead: 1})
		if err != nil {
			errc <- err
			return
		}
		done <- res
	}()
	select {
	case res := <-done:
		if res.Stats.EventsCommitted != 41 {
			t.Errorf("committed %d events, want 41", res.Stats.EventsCommitted)
		}
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("conservative run under an unbounded end time did not return within 10s after the model drained")
	}
}
