// Command perfbench is gowarp's kernel benchmark. It runs one named workload
// for a time budget, checks every parallel simulation against the sequential
// reference kernel for the same seed, and prints its metrics: the end-to-end
// metrics with -trace 0, or the per-layer metrics of a traced run with
// -trace 1. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Run it through run.py from the repository root, which builds it first:
//
//	python3 perfbench/run.py --workload phold-pool --seed 1 --seconds 20 --trace 0
//
// See NOTES.md for the workloads, the metrics and the recorded baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported figure.
type metric struct {
	name, unit string
	summary
}

func (m metric) String() string {
	s := fmt.Sprintf("%-36s %14.6g %-6s n=%d", m.name, m.Median, m.unit, m.Samples)
	if m.TailP > 0 {
		s += fmt.Sprintf(" p%g=%.6g", m.TailP, m.Tail)
	}
	return s
}

// one reports a single pooled value, computed from n simulations.
func one(name, unit string, v float64, n int) metric {
	return metric{name, unit, summary{Median: v, Samples: n}}
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options are one invocation's settings.
type options struct {
	w        workload
	seed     uint64
	budget   time.Duration
	deadline time.Duration
	spans    string // the file the traced run writes its sampled spans to
}

// deadline bounds one simulation; past it the simulation counts as failed.
const deadline = 60 * time.Second

func main() {
	var (
		name     = flag.String("workload", "", "workload: phold-pool, phold-large, smmp-ckpt, raid-online")
		seed     = flag.Uint64("seed", 1, "workload seed; each simulation's model seed is derived from it")
		seconds  = flag.Int("seconds", 25, "measurement budget in seconds")
		traceArg = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*traceArg != 0 && *traceArg != 1) || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments; see -help")
		os.Exit(2)
	}
	w, err := findWorkload(*name, full)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	o := options{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second, deadline: deadline,
		spans: filepath.Join(".bench_build", "trace", w.name+".jsonl")}

	var ms []metric
	var t tally
	if *traceArg == 0 {
		ms, t = endToEnd(o)
	} else if ms, t, err = perLayer(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	report(os.Stdout, w.name, ms, t)
}

// report prints the metrics table, any failures, and the JSON result line.
func report(f *os.File, workload string, ms []metric, t tally) {
	fmt.Fprintf(f, "workload %s: %d simulations checked against the sequential kernel, %d failed\n",
		workload, t.attempted, t.failed)
	for _, r := range t.reasons {
		fmt.Fprintln(f, r)
	}
	out := result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range ms {
		fmt.Fprintln(f, m)
		if m.name == "failed_share" {
			continue // carried by attempted/failed; never a bounded metric
		}
		out.Metrics[m.name] = metricValue{m.Median, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only finite floats and strings: cannot fail
	}
	fmt.Fprintln(f, string(b))
}

// simSeed derives the i-th simulation's model seed from the workload seed
// (splitmix64), never 0, which the models would replace with a default.
func simSeed(seed uint64, i int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

const (
	minSims = 3
	maxSims = 400
)

// bench is one invocation's state: the checked tally and the sequential
// reference for each seed seen so far.
type bench struct {
	options
	start    time.Time
	t        tally
	refs     map[uint64]seqSim
	seqRates []float64
	tr       *tracer // records seq.run spans in the traced run
}

func newBench(o options) *bench {
	return &bench{options: o, start: time.Now(), refs: map[uint64]seqSim{}}
}

// past reports whether share of the budget has elapsed.
func (b *bench) past(share float64) bool {
	return time.Since(b.start) >= time.Duration(share*float64(b.budget))
}

// par runs one parallel simulation under the deadline, traced when tr is
// set. A simulation past its deadline is counted as failed and ok is false:
// its goroutine cannot be stopped, so the caller stops measuring.
func (b *bench) par(seed uint64, tr *tracer) (p parSim, ok bool) {
	p, err := withDeadline(b.deadline, func() parSim { return runPar(b.w, seed, tr) })
	if err != nil {
		b.t.add(b.w.name, seed, err)
		return p, false
	}
	return p, true
}

// check gates p against the sequential reference for its seed, running the
// reference the first time the seed is seen. ok is false only when the
// reference passed its deadline.
func (b *bench) check(p parSim) (ok bool) {
	ref, seen := b.refs[p.seed]
	if !seen {
		var err error
		ref, err = withDeadline(b.deadline, func() seqSim { return runSeq(b.w, p.seed, b.tr) })
		if err != nil {
			b.t.add(b.w.name, p.seed, err)
			return false
		}
		b.refs[p.seed] = ref
		if ref.err == nil {
			b.seqRates = append(b.seqRates, ref.rate)
		}
	}
	err := gate(p.verdict, ref.verdict)
	b.t.add(b.w.name, p.seed, err)
	if err == nil {
		fmt.Printf("sim seed=%d traced=%t committed=%d par=%.0f ev/s seq=%.0f ev/s\n",
			p.seed, p.traced, p.committed, p.rate(), ref.rate)
	}
	return true
}

// checkAll gates every simulation of the groups, stopping at a reference
// that passes its deadline.
func (b *bench) checkAll(groups ...[]parSim) bool {
	for _, g := range groups {
		for _, p := range g {
			if !b.check(p) {
				return false
			}
		}
	}
	return true
}

// endToEnd measures the workload untraced. A warm-up simulation, checked
// but not measured, fills the heap and caches. Measured parallel simulations
// then run for half the budget (at least minSims), and their peak RSS is read
// before any sequential reference runs, so it is the parallel runs' peak.
// Then each is checked against its reference, and the rest of the budget is
// filled with further parallel simulations, each checked as it completes.
func endToEnd(o options) ([]metric, tally) {
	b := newBench(o)
	warm, ok := b.par(simSeed(o.seed, 0), nil)
	var sims []parSim
	for i := 0; ok && i < maxSims && (i < minSims || !b.past(0.5)); i++ {
		var p parSim
		if p, ok = b.par(simSeed(o.seed, i), nil); ok {
			sims = append(sims, p)
		}
	}
	rss := peakRSSMiB()
	ok = ok && b.checkAll([]parSim{warm}, sims)
	// Start another pair only if one as long as the last still fits.
	var pair time.Duration
	for i := len(sims); ok && i < maxSims && time.Since(b.start)+pair <= b.budget; i++ {
		t0 := time.Now()
		var p parSim
		if p, ok = b.par(simSeed(o.seed, i), nil); ok {
			sims = append(sims, p)
			ok = b.check(p)
		}
		pair = time.Since(t0)
	}
	var rate, cpuNs, allocs, setup []float64
	for _, p := range sims {
		if p.err != nil {
			continue
		}
		c := float64(p.committed)
		rate = append(rate, p.rate())
		cpuNs = append(cpuNs, ratio(float64(p.use.cpu.Nanoseconds()), c))
		allocs = append(allocs, ratio(float64(p.use.mallocs), c))
		setup = append(setup, p.setup().Seconds())
	}
	return []metric{
		{"committed_ev_per_s", "ev/s", summarize(rate)},
		{"cpu_ns_per_committed", "ns", summarize(cpuNs)},
		{"allocs_per_committed", "allocs", summarize(allocs)},
		one("peak_rss_mb", "MiB", rss, len(sims)),
		{"setup_s", "s", summarize(setup)},
		{"seq_ev_per_s", "ev/s", summarize(b.seqRates)},
		one("failed_share", "ratio", b.t.failedShare(), b.t.attempted),
	}, b.t
}

// perLayer runs the workload untraced and traced on the same seeds, checks
// both against the sequential reference, replays the pq and event
// layers at the workload's sizes, and derives the per-layer metrics.
func perLayer(o options) ([]metric, tally, error) {
	b := newBench(o)
	tr := newTracer()
	b.tr = tr
	// Untraced and traced runs of each seed alternate, so each pair sees
	// the same host conditions and the trace overhead is taken per pair.
	warm, ok := b.par(simSeed(o.seed, 0), nil)
	var untraced, traced []parSim
	for i := 0; ok && i < maxSims && (i < minSims || !b.past(0.6)); i++ {
		seed := simSeed(o.seed, i)
		var u, q parSim
		if u, ok = b.par(seed, nil); !ok {
			break
		}
		untraced = append(untraced, u)
		if q, ok = b.par(seed, tr); ok {
			traced = append(traced, q)
		}
	}
	ok = ok && b.checkAll([]parSim{warm}, untraced, traced)
	if !ok || b.t.failed > 0 {
		return nil, b.t, nil
	}
	reps, err := replayLayers(o, tr)
	if err != nil {
		return nil, b.t, err
	}
	if err := os.MkdirAll(filepath.Dir(o.spans), 0o755); err != nil {
		return nil, b.t, err
	}
	if err := tr.writeSpans(o.spans); err != nil {
		return nil, b.t, err
	}
	ms := layerMetrics(o.w, untraced, traced, b.seqRates, tr, reps)
	got := map[string]float64{}
	for _, m := range ms {
		got[m.name] = m.Median
	}
	sum := 0.0
	fmt.Print("process CPU account (traced simulations):")
	for i, n := range accountShares {
		if i > 0 {
			fmt.Print(" +")
		}
		fmt.Printf(" %s %.4f", n, got[n])
		sum += got[n]
	}
	fmt.Printf(" = %.4f\n", sum)
	return ms, b.t, nil
}
