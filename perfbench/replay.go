package main

import (
	"fmt"
	"time"

	"gowarp"
	"gowarp/internal/event"
	"gowarp/internal/pq"
	"gowarp/internal/vtime"
)

// Layer replays drive one package's public functions in isolation, at sizes
// taken from the workload, so a layer's cost can be read without the
// kernel around it. Each replays a fixed number of operations and reports
// the median over replayReps repetitions.

const (
	replayReps = 5
	holdOps    = 1 << 17
	codecOps   = 1 << 16
)

// holdNs is the pending-set hold model: population events are pushed, then
// each operation pops the minimum and pushes it back at a later exponential
// time, the steady state of a PHOLD LP. It returns ns per pop+push pair.
func holdNs(kind gowarp.PendingSetKind, population int, seed uint64) float64 {
	if population < 1 {
		population = 1
	}
	var samples []float64
	for rep := 0; rep < replayReps; rep++ {
		rng := gowarp.NewRand(seed + uint64(rep))
		ps := pq.New(kind)
		evs := make([]event.Event, population)
		for i := range evs {
			e := &evs[i]
			e.Sender, e.ID = event.ObjectID(i), uint64(i)
			e.RecvTime = vtime.Time(rng.Exp(10))
			ps.Push(e)
		}
		next := uint64(population)
		start := time.Now()
		for i := 0; i < holdOps; i++ {
			e := ps.PopMin()
			e.SendTime = e.RecvTime
			e.RecvTime += vtime.Time(rng.Exp(10))
			e.ID = next
			next++
			ps.Push(e)
		}
		samples = append(samples, float64(time.Since(start).Nanoseconds())/holdOps)
	}
	return percentile(samples, 50)
}

// codecBatch is the number of events per replayed physical message.
const codecBatch = 64

// eventCodecNs replays the wire codec at payload bytes per event: Encode
// appends a batch into one reused buffer, and Pool.DecodeInto (the kernel's
// receive path) reads it back, recycling each event. It returns ns per
// event for each direction.
func eventCodecNs(payload int) (encodeNs, decodeNs float64, err error) {
	evs := make([]event.Event, codecBatch)
	for i := range evs {
		evs[i] = event.Event{
			SendTime: vtime.Time(i), RecvTime: vtime.Time(i + 10),
			Sender: event.ObjectID(i), Receiver: event.ObjectID(i + 1),
			ID: uint64(i), Payload: make([]byte, payload),
		}
	}
	pool := event.NewPool()
	var buf []byte
	var enc, dec []float64
	for rep := 0; rep < replayReps; rep++ {
		start := time.Now()
		for i := 0; i < codecOps/codecBatch; i++ {
			buf = buf[:0]
			for j := range evs {
				buf = evs[j].Encode(buf)
			}
		}
		enc = append(enc, float64(time.Since(start).Nanoseconds())/codecOps)

		start = time.Now()
		for i := 0; i < codecOps/codecBatch; i++ {
			rest := buf
			for len(rest) > 0 {
				var e *event.Event
				if e, rest, err = pool.DecodeInto(rest); err != nil {
					return 0, 0, fmt.Errorf("decode replay: %w", err)
				}
				pool.Put(e)
			}
		}
		dec = append(dec, float64(time.Since(start).Nanoseconds())/codecOps)
	}
	return percentile(enc, 50), percentile(dec, 50), nil
}
