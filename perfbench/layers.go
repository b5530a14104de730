package main

import (
	"math"

	"gowarp"
)

// accountShares are the per-layer shares that partition the traced
// simulations' process CPU: disjoint span self times plus the rest.
var accountShares = []string{"apps.execute_share", "core.send_share", "comm.send_share",
	"statesave.copy_share", "codec.marshal_share", "core.other_share"}

// replays holds the layer replays' results.
type replays struct {
	population float64
	payload    int
	hold       [3]float64 // ns per pop+push, indexed by pending-set kind
	encode     float64
	decode     float64
}

// holdKinds are the replayed pending sets, in replays.hold order.
var holdKinds = []gowarp.PendingSetKind{gowarp.HeapPendingSet, gowarp.SplayPendingSet, gowarp.CalendarPendingSet}

// replayLayers sizes the pq and event replays from what the traced run saw
// at the seams: the initial pending events per LP (for PHOLD the steady
// population, since tokens are conserved) and the mean payload per send.
func replayLayers(o options, tr *tracer) (replays, error) {
	pop, payload := tr.seamCounts()
	r := replays{population: pop, payload: int(math.Round(payload))}
	for i, k := range holdKinds {
		r.hold[i] = holdNs(k, int(math.Round(pop)), o.seed)
	}
	var err error
	r.encode, r.decode, err = eventCodecNs(r.payload)
	return r, err
}

// layerMetrics derives the per-layer metrics. Counts and kernel-timer shares
// come from the untraced simulations (pooled: sums over sums); span times
// and the CPU account come from the traced ones, where traced[i] ran the
// seed of un[i]. Every share is over the
// process CPU (getrusage user+sys) of the simulations it is taken from.
func layerMetrics(w workload, un, traced []parSim, seqRates []float64, tr *tracer, r replays) []metric {
	var c gowarp.Counters
	var cpu, elapsed, gcCPU, busyCPU float64
	var allocBytes float64
	var busy, workerSlots float64
	var imbalance, windows, rates []float64
	var objects, lazyObjects, ckptSum float64
	var gvtRounds, gvtCycles float64
	for _, p := range un {
		c.Merge(&p.res.Stats)
		cpu += p.use.cpu.Seconds()
		elapsed += p.res.Elapsed.Seconds()
		gcCPU += p.use.gcCPU
		busyCPU += p.use.busyCPU
		allocBytes += float64(p.use.bytes)
		rates = append(rates, p.rate())
		windows = append(windows, float64(p.res.FinalOptimismWindow))
		gvtRounds += float64(p.res.PerLP[0].GVTRounds)
		gvtCycles += float64(p.res.PerLP[0].GVTCycles)
		if n := len(p.res.PerWorker); n > 0 {
			var maxEv, sumEv float64
			for _, ws := range p.res.PerWorker {
				busy += ws.BusySeconds
				sumEv += float64(ws.Events)
				maxEv = math.Max(maxEv, float64(ws.Events))
			}
			workerSlots += float64(n) * p.res.Elapsed.Seconds()
			imbalance = append(imbalance, ratio(maxEv, sumEv/float64(n)))
		}
		for _, po := range p.res.PerObject {
			objects++
			ckptSum += float64(po.FinalCheckpointInt)
			if po.FinalStrategy == "lazy" {
				lazyObjects++
			}
		}
	}
	n := len(un)
	committed := float64(c.EventsCommitted)
	per := func(v int64) float64 { return ratio(float64(v), committed) }
	perSim := func(v int64) float64 { return ratio(float64(v), float64(n)) }
	cpuNs := cpu * 1e9

	spans := tr.totals()
	var tCPU, tCommitted float64
	var overhead []float64
	for i, p := range traced {
		tCPU += float64(p.use.cpu.Nanoseconds())
		tCommitted += float64(p.committed)
		overhead = append(overhead, 1-ratio(p.rate(), un[i].rate()))
	}
	nt := len(traced)
	share := func(k spanKind) float64 { return ratio(float64(spans[k].SelfNs), tCPU) }
	meanSelf := func(k spanKind) float64 { return ratio(float64(spans[k].SelfNs), float64(spans[k].Count)) }
	meanTotal := func(k spanKind) float64 { return ratio(float64(spans[k].TotalNs), float64(spans[k].Count)) }
	// The CPU account: these span self times are disjoint by construction
	// (a comm.send inside a core.send is subtracted from it, and core.send
	// from apps.execute), so with core.other_share they sum to 1.
	accounted := 0.0
	for _, k := range []spanKind{spanExecute, spanCoreSend, spanCommSend, spanCopy, spanMarshal} {
		accounted += share(k)
	}

	cfg := w.config()
	spin := float64(c.PhysicalMsgsSent)*float64(cfg.Cost.PerMessage) + float64(c.BytesSent)*float64(cfg.Cost.PerByte)
	unRate, seqRate := percentile(rates, 50), percentile(seqRates, 50)

	return []metric{
		one("core.efficiency", "ratio", ratio(committed, float64(c.EventsProcessed)), n),
		one("core.rollbacks_per_kcommitted", "count", 1000*per(c.Rollbacks), n),
		one("core.coast_forward_per_committed", "count", per(c.CoastForwardEvents), n),
		one("core.send_ns", "ns", meanSelf(spanCoreSend), nt),
		one("core.send_calls_per_committed", "count", ratio(float64(spans[spanCoreSend].Count), tCommitted), nt),
		one("core.send_share", "ratio", share(spanCoreSend), nt),
		one("core.dispatch_busy_share", "ratio", ratio(busy, workerSlots), n),
		one("core.dispatch_imbalance", "ratio", percentile(imbalance, 50), len(imbalance)),
		one("core.other_share", "ratio", 1-accounted, nt),
		one("core.speedup_vs_seq", "ratio", ratio(unRate, seqRate), n),

		one("apps.execute_ns", "ns", meanSelf(spanExecute), nt),
		one("apps.execute_share", "ratio", share(spanExecute), nt),

		one("pq.population", "count", r.population, nt),
		one("pq.hold_ns.heap", "ns", r.hold[0], replayReps),
		one("pq.hold_ns.splay", "ns", r.hold[1], replayReps),
		one("pq.hold_ns.calendar", "ns", r.hold[2], replayReps),

		one("event.pool_hit_ratio", "ratio", ratio(float64(c.EventPoolReuses), float64(c.EventPoolAllocs+c.EventPoolReuses)), n),
		one("event.payload_bytes", "bytes", float64(r.payload), nt),
		one("event.encode_ns", "ns", r.encode, replayReps),
		one("event.decode_ns", "ns", r.decode, replayReps),

		one("statesave.saves_per_committed", "count", per(c.StatesSaved), n),
		one("statesave.bytes_per_committed", "bytes", per(c.StateBytes), n),
		one("statesave.copy_ns", "ns", meanTotal(spanCopy), nt),
		one("statesave.copy_share", "ratio", share(spanCopy), nt),
		one("statesave.save_share", "ratio", ratio(c.StateSaveTime.Seconds(), cpu), n),
		one("statesave.coast_share", "ratio", ratio(c.CoastForwardTime.Seconds(), cpu), n),

		one("cancel.antis_per_committed", "count", per(c.AntiMsgsSent), n),
		one("cancel.lazy_hit_ratio", "ratio", c.HitRatio(), n),
		one("cancel.lazy_object_share", "ratio", ratio(lazyObjects, objects), n),

		one("comm.msgs_per_committed", "count", per(c.EventMsgsSent), n),
		one("comm.physical_per_committed", "count", per(c.PhysicalMsgsSent), n),
		one("comm.events_per_physical", "ratio", ratio(float64(c.EventMsgsSent), float64(c.PhysicalMsgsSent)), n),
		one("comm.bytes_per_committed", "bytes", per(c.BytesSent), n),
		one("comm.intra_share", "ratio", ratio(float64(c.IntraLPMsgs), float64(c.IntraLPMsgs+c.EventMsgsSent)), n),
		one("comm.send_ns", "ns", meanTotal(spanCommSend), nt),
		one("comm.send_share", "ratio", share(spanCommSend), nt),
		one("comm.spin_share", "ratio", ratio(spin, cpuNs), n),

		one("codec.stored_per_raw", "ratio", ratio(float64(c.CheckpointBytes), float64(c.CheckpointRawBytes)), n),
		one("codec.wire_ratio", "ratio", ratio(float64(c.BytesSent), float64(c.WireRawBytes)), n),
		one("codec.delta_share", "ratio", ratio(float64(c.DeltaCheckpoints), float64(c.StatesSaved)), n),
		one("codec.marshal_ns", "ns", meanTotal(spanMarshal), nt),
		one("codec.marshal_share", "ratio", share(spanMarshal), nt),

		one("gvt.cycles_per_s", "1/s", ratio(gvtCycles, elapsed), n),
		one("gvt.rounds_per_cycle", "ratio", ratio(gvtRounds, gvtCycles), n),
		one("gvt.time_share", "ratio", ratio(c.GVTTime.Seconds(), cpu), n),
		one("gvt.fossils_per_committed", "count", per(c.FossilCollected), n),

		one("control.ckpt_adjustments", "count", perSim(c.CheckpointAdjustments), n),
		one("control.cancel_switches", "count", perSim(c.CancellationSwitches), n),
		one("control.agg_window_adjustments", "count", perSim(c.WindowAdjustments), n),
		one("control.optimism_adjustments", "count", perSim(c.OptimismAdjustments), n),
		one("control.final_ckpt_interval_mean", "count", ratio(ckptSum, objects), n),
		one("control.final_optimism_window", "vtime", percentile(windows, 50), n),

		one("runtime.gc_cpu_share", "ratio", ratio(gcCPU, busyCPU), n),
		one("runtime.bytes_per_committed", "bytes", ratio(allocBytes, committed), n),

		one("trace_overhead", "ratio", percentile(overhead, 50), nt),
	}
}
