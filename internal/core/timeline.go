package core

import (
	"fmt"
	"strings"
	"time"

	"gowarp/internal/cancel"
	"gowarp/internal/observe"
	"gowarp/internal/vtime"
)

// Sample is one point of a logical process's adaptation timeline, recorded
// each time the LP learns a new GVT. It captures both progress (events,
// rollbacks) and the current settings of the on-line controllers, so the
// convergence behaviour the paper argues for — checkpoint intervals opening,
// objects settling on cancellation strategies, aggregation windows homing in
// — can be observed rather than assumed.
type Sample struct {
	// Wall is the time since the run started.
	Wall time.Duration
	// GVT is the newly learned Global Virtual Time.
	GVT vtime.Time
	// EventsProcessed, EventsCommitted and Rollbacks are the LP's own
	// cumulative counters at the sample.
	EventsProcessed, EventsCommitted, Rollbacks int64
	// MeanCheckpointInterval averages χ over the LP's objects.
	MeanCheckpointInterval float64
	// LazyObjects counts hosted objects currently under lazy cancellation.
	LazyObjects int
	// HitRatio is the LP's cumulative hit ratio.
	HitRatio float64
	// AggregationWindow is the mean current window across the LP's remote
	// destination buffers (zero without aggregation or peers).
	AggregationWindow time.Duration
}

// LPTimeline is one logical process's sequence of samples.
type LPTimeline struct {
	LP      int
	Samples []Sample
}

// RenderTimeline formats per-LP timelines as an aligned table, thinning to
// at most maxRows rows per LP (0 = no thinning). Intended for reports and
// the examples; one line per retained sample.
func RenderTimeline(tls []LPTimeline, maxRows int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-12s %-12s %10s %10s %9s %6s %6s %8s %12s\n",
		"LP", "wall", "gvt", "processed", "committed", "rollbacks", "chi", "lazy", "hitratio", "aggwindow")
	for _, tl := range tls {
		step := 1
		if maxRows > 0 && len(tl.Samples) > maxRows {
			step = (len(tl.Samples) + maxRows - 1) / maxRows
		}
		for i := 0; i < len(tl.Samples); i += step {
			s := tl.Samples[i]
			fmt.Fprintf(&b, "%-4d %-12s %-12s %10d %10d %9d %6.1f %6d %8.3f %12s\n",
				tl.LP, s.Wall.Round(time.Millisecond), s.GVT,
				s.EventsProcessed, s.EventsCommitted, s.Rollbacks,
				s.MeanCheckpointInterval, s.LazyObjects, s.HitRatio,
				s.AggregationWindow.Round(time.Microsecond))
		}
	}
	return b.String()
}

// controlSnapshot summarizes the LP's on-line controller state: the mean
// checkpoint interval and lazily-cancelling object count across hosted
// objects, and the mean aggregation window across remote destinations. One
// call per GVT application serves both the adaptation timeline and the live
// metrics.
func (lp *lpRun) controlSnapshot() (meanChi float64, lazy int, meanWindow time.Duration) {
	for _, o := range lp.objs {
		meanChi += float64(o.ckpt.Interval())
		if o.out.Selector().Current() == cancel.Lazy {
			lazy++
		}
	}
	if len(lp.objs) > 0 {
		meanChi /= float64(len(lp.objs))
	}
	if lp.numLPs > 1 {
		var sum time.Duration
		for dst := 0; dst < lp.numLPs; dst++ {
			if dst != lp.id {
				sum += lp.ep.Window(dst)
			}
		}
		meanWindow = sum / time.Duration(lp.numLPs-1)
	}
	return meanChi, lazy, meanWindow
}

// recordSample appends a timeline sample built from this GVT application's
// progress row and controller state; called from applyGVT when
// Config.Timeline is set.
func (lp *lpRun) recordSample(p observe.Progress, meanChi float64, lazy int, meanWindow time.Duration) {
	lp.timeline = append(lp.timeline, Sample{
		Wall:                   time.Since(lp.started),
		GVT:                    vtime.Time(p.GVT),
		EventsProcessed:        p.Processed,
		EventsCommitted:        p.Committed,
		Rollbacks:              p.Rollbacks,
		MeanCheckpointInterval: meanChi,
		LazyObjects:            lazy,
		HitRatio:               lp.st.HitRatio(),
		AggregationWindow:      meanWindow,
	})
}
