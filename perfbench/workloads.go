package main

import (
	"fmt"
	"time"

	"gowarp"
)

// drainEnd is the finite end time of the drain-to-completion workloads, the
// same one twsim uses. gowarp.EndOfTime cannot be used: a run whose model
// drains never returns when EndTime is +inf (see NOTES.md, known defects).
const drainEnd = gowarp.VTime(1) << 40

// padding is the per-object state padding of the paper-model workloads, so
// check-pointing copies real bytes.
const padding = 16 << 10

// workload is one named benchmark input: a model built from a seed and the
// kernel configuration it runs under.
type workload struct {
	name string
	// model builds the simulation for one seed.
	model func(seed uint64) *gowarp.Model
	// config returns the kernel configuration (EndTime included).
	config func() gowarp.Config
}

// pool reports whether the workload runs on the worker-pool engine, which
// rejects a custom transport.
func (w workload) pool() bool { return w.config().Workers > 0 }

// size selects the model scale: full for the benchmark, tiny for the
// smoke test.
type size int

const (
	full size = iota
	tiny
)

// twsimConfig is twsim's default configuration: aggressive cancellation,
// periodic check-pointing at chi=1, no aggregation, a 10 ms GVT period and
// no per-message cost, 10 ns/byte.
func twsimConfig(end gowarp.VTime) gowarp.Config {
	cfg := gowarp.DefaultConfig(end)
	cfg.GVTPeriod = 10 * time.Millisecond
	cfg.Cost = gowarp.CostModel{PerByte: 10 * time.Nanosecond}
	cfg.Checkpoint = gowarp.CheckpointConfig{Mode: gowarp.PeriodicCheckpointing, Interval: 1}
	return cfg
}

// onlineFacets turns on twsim's dynamic check-pointing and dynamic
// cancellation.
func onlineFacets(cfg *gowarp.Config) {
	cfg.Checkpoint = gowarp.CheckpointConfig{
		Mode: gowarp.DynamicCheckpointing, Interval: 1,
		MinInterval: 1, MaxInterval: 64, Period: 256,
	}
	cfg.Cancellation = gowarp.CancellationConfig{
		Mode: gowarp.DynamicCancellation, FilterDepth: 16,
		A2LThreshold: 0.45, L2AThreshold: 0.2,
	}
}

// workloads returns the four benchmark workloads at sz. Why each exists is in
// NOTES.md.
func workloads(sz size) []workload {
	pholdObjects, pholdEnd := 4096, gowarp.VTime(400)
	largeObjects, largeEnd := 100_000, gowarp.VTime(12)
	smmpRequests, raidRequests := 2000, 150
	if sz == tiny {
		pholdObjects, pholdEnd = 256, 40
		largeObjects, largeEnd = 2048, 4
		smmpRequests, raidRequests = 40, 8
	}
	phold := func(objects int, end gowarp.VTime) workload {
		return workload{
			model: func(seed uint64) *gowarp.Model {
				return gowarp.NewPHOLD(gowarp.PHOLDConfig{
					Objects: objects, TokensPerObject: 1, MeanDelay: 10,
					Locality: 0.5, LPs: 64, Seed: seed, Sparse: true,
				})
			},
			config: func() gowarp.Config {
				cfg := twsimConfig(end)
				cfg.Workers = 2
				return cfg
			},
		}
	}
	pp := phold(pholdObjects, pholdEnd)
	pp.name = "phold-pool"
	pl := phold(largeObjects, largeEnd)
	pl.name = "phold-large"
	return []workload{pp, pl,
		{
			name: "smmp-ckpt",
			model: func(seed uint64) *gowarp.Model {
				return gowarp.NewSMMP(gowarp.SMMPConfig{Requests: smmpRequests, Seed: seed, StatePadding: padding})
			},
			config: func() gowarp.Config {
				cfg := twsimConfig(drainEnd)
				onlineFacets(&cfg)
				return cfg
			},
		},
		{
			name: "raid-online",
			model: func(seed uint64) *gowarp.Model {
				return gowarp.NewRAID(gowarp.RAIDConfig{RequestsPerSource: raidRequests, Seed: seed, StatePadding: padding})
			},
			config: func() gowarp.Config {
				cfg := twsimConfig(drainEnd)
				onlineFacets(&cfg)
				cfg.Cost.PerMessage = 20 * time.Microsecond
				cfg.Aggregation = gowarp.AggregationConfig{Policy: gowarp.SAAW, Window: 100 * time.Microsecond}
				var err error
				if cfg.Codec, err = gowarp.ParseCodecSpec("dynamic,lz"); err != nil {
					panic(err)
				}
				if cfg.Optimism, err = gowarp.ParseOptSpec("adaptive,window=4000"); err != nil {
					panic(err)
				}
				return cfg
			},
		},
	}
}

// findWorkload returns the named workload at sz.
func findWorkload(name string, sz size) (workload, error) {
	var names []string
	for _, w := range workloads(sz) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
