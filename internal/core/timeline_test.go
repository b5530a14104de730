package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"gowarp/internal/apps/phold"
	"gowarp/internal/observe"
	"gowarp/internal/telemetry"
)

// TestProgressSingleSource runs with Timeline, Metrics and the Observe
// sampler all on and checks that they report the same per-LP progress: each
// LP's final committed and rolled-back metrics equal its last timeline
// sample, because both are filled from the one progress row the LP
// publishes at its final GVT application. At that application GVT has
// passed the end time, so every processed event is either committed or
// rolled back, and the sample's processed minus committed is the rolled-back
// count.
func TestProgressSingleSource(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			m := phold.New(phold.Config{
				Objects: 16, TokensPerObject: 3, MeanDelay: 10,
				Locality: 0.2, LPs: 4, Seed: 7,
			})
			cfg := DefaultConfig(1500)
			cfg.GVTPeriod = 200 * time.Microsecond
			cfg.Workers = workers
			cfg.Timeline = true
			cfg.Metrics = telemetry.NewRegistry()
			cfg.Observe = observe.NewSampler(0)
			res, err := Run(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			snap := cfg.Metrics.Snapshot()
			committed := snap["gowarp_events_committed_total"].([]float64)
			rolledBack := snap["gowarp_events_rolled_back_total"].([]float64)
			var anyRolled bool
			for _, tl := range res.Timeline {
				if len(tl.Samples) == 0 {
					t.Fatalf("LP %d recorded no timeline samples", tl.LP)
				}
				last := tl.Samples[len(tl.Samples)-1]
				if got, want := committed[tl.LP], float64(last.EventsCommitted); got != want {
					t.Errorf("LP %d: committed metric %v, last timeline sample %v", tl.LP, got, want)
				}
				if got, want := rolledBack[tl.LP], float64(last.EventsProcessed-last.EventsCommitted); got != want {
					t.Errorf("LP %d: rolled-back metric %v, last timeline sample %v", tl.LP, got, want)
				}
				if got, want := rolledBack[tl.LP], float64(res.PerLP[tl.LP].EventsRolledBack); got != want {
					t.Errorf("LP %d: rolled-back metric %v, final counter %v", tl.LP, got, want)
				}
				anyRolled = anyRolled || rolledBack[tl.LP] > 0
			}
			if !anyRolled {
				t.Error("no LP rolled back; the rolled-back comparison is vacuous")
			}
			if cfg.Observe.Summary() == nil {
				t.Error("sampler took no roughness sample")
			}
		})
	}
}

func TestRenderTimeline(t *testing.T) {
	tls := []LPTimeline{
		{LP: 0, Samples: []Sample{
			{Wall: time.Millisecond, GVT: 10, EventsProcessed: 5, EventsCommitted: 3,
				MeanCheckpointInterval: 2.5, LazyObjects: 1, AggregationWindow: 50 * time.Microsecond},
			{Wall: 2 * time.Millisecond, GVT: 20, EventsProcessed: 9, EventsCommitted: 8},
		}},
		{LP: 1, Samples: []Sample{
			{Wall: time.Millisecond, GVT: 10},
		}},
	}
	out := RenderTimeline(tls, 0)
	for _, want := range []string{"LP", "gvt", "chi", "2.5", "50µs"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "\n"); got != 1+3 {
		t.Errorf("rendered %d lines, want header + 3 samples", got)
	}
}

func TestRenderTimelineThinning(t *testing.T) {
	tl := LPTimeline{LP: 0}
	for i := 0; i < 100; i++ {
		tl.Samples = append(tl.Samples, Sample{GVT: 1})
	}
	out := RenderTimeline([]LPTimeline{tl}, 10)
	if rows := strings.Count(out, "\n") - 1; rows > 12 {
		t.Errorf("thinning left %d rows, want <= ~10", rows)
	}
	// No thinning keeps everything.
	out = RenderTimeline([]LPTimeline{tl}, 0)
	if rows := strings.Count(out, "\n") - 1; rows != 100 {
		t.Errorf("unthinned rows = %d", rows)
	}
}
