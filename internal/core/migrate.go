package core

import (
	"time"

	"gowarp/internal/audit"
	"gowarp/internal/cancel"
	"gowarp/internal/codec"
	"gowarp/internal/comm"
	"gowarp/internal/model"
	"gowarp/internal/pq"
	"gowarp/internal/vtime"
)

// This file implements object migration: packing quiescent simulation
// objects — working state, pending events, processed history, state queue,
// output queue, per-object controller state — into a capsule, shipping it to
// another LP over the communication substrate, and installing it there. One
// capsule may carry several co-migrating objects bound for the same
// destination (the balancer batches its per-destination moves), paying the
// fixed capsule overhead and the physical message once.
//
// Correctness rests on three pillars:
//
//   - GVT soundness: the capsule is color-accounted like an events packet
//     (Endpoint.SendMigration / ReceiveMigration) with the minimum
//     virtual-time floor over its objects folded into the red minimum, so
//     GVT can never overtake the unprocessed work the capsule carries.
//
//   - No lost or duplicated events: the source packs at a safe point (the
//     packet-handling loop, never mid-execution) after draining its deferred
//     queue, so every event it has accepted for the objects travels inside
//     the capsule. Events that arrive at the source afterwards find the
//     object gone and are forwarded to the destination; per-sender FIFO
//     channels guarantee the capsule precedes any such forward from the
//     source itself.
//
//   - Routing convergence: the shared routing table flips only after the
//     destination installs each object, so a direct send routed by the new
//     entry always arrives post-install; until then senders reach the
//     source, which forwards using its outbound hint.

// capsuleItem is one migrated object inside a capsule plus the integrity
// manifest the destination checks on install.
type capsuleItem struct {
	o *simObject
	// pending is the unprocessed-event count at pack time; hash is the
	// structural hash of the working state (0 when auditing is off). The
	// installing LP verifies both — a mismatch means the move lost events or
	// state.
	pending int
	hash    uint64
	// stateEnc, when non-nil, is the working state's marshaled (and, when
	// comp, compressed) image: the codec facet ships encoded state and the
	// destination decodes it, so the audit hash check exercises the real
	// round trip. Nil means the state object travels in place.
	stateEnc []byte
	comp     bool
}

// capsule is the migration payload: one or more object runtimes bound for
// the same destination LP.
type capsule struct {
	from  int
	items []capsuleItem
}

// capsuleOverheadBytes is the fixed per-capsule charge in the communication
// cost model; each object adds its events, state and state-queue bytes.
const capsuleOverheadBytes = 256

// perPendingEventBytes sizes one unprocessed event travelling in a capsule.
const perPendingEventBytes = 64

// onMigrateReq handles a migration request from the balancing controller.
// Stale or unsafe requests are dropped silently: an object may have moved
// on, the request may name this LP itself, or honoring it in full would
// empty this LP (the kernel requires every LP to host at least one object).
func (lp *lpRun) onMigrateReq(p comm.Packet) {
	if p.Dst < 0 || p.Dst >= lp.numLPs || p.Dst == lp.id {
		return
	}
	batch := make([]*simObject, 0, len(p.Objects))
	for _, id := range p.Objects {
		if int(id) < 0 || int(id) >= len(lp.local) {
			continue
		}
		o := lp.local[id]
		if o == nil {
			continue
		}
		if len(lp.objs)-len(batch) <= 1 {
			break
		}
		batch = append(batch, o)
	}
	if len(batch) > 0 {
		lp.migrateOutBatch(batch, p.Dst)
	}
}

// migrateOut packs a single object and ships it to LP to.
func (lp *lpRun) migrateOut(o *simObject, to int) {
	lp.migrateOutBatch([]*simObject{o}, to)
}

// migrateOutBatch packs every object in batch into one capsule and ships it
// to LP to. Called only from safe points (packet handling, the balancer at
// GVT application), never while an object is executing.
func (lp *lpRun) migrateOutBatch(batch []*simObject, to int) {
	// Flush everything this LP still owes the objects: queued intra-LP
	// messages (which may trigger rollbacks that change their queues) and
	// stale lazy-pending outputs.
	lp.drainDeferred()
	for _, o := range batch {
		o.drainStale()
	}

	// Detach: swap-remove each from the hosted set, fix the displaced
	// object's slot, and rebuild the scheduler over the survivors. The
	// objects leave this LP's active lists too; install puts them on the
	// destination's.
	for _, o := range batch {
		last := len(lp.objs) - 1
		lp.objs[o.slot] = lp.objs[last]
		lp.objs[o.slot].slot = o.slot
		lp.objs[last] = nil
		lp.objs = lp.objs[:last]
		lp.local[o.id] = nil
		lp.outbound[o.id] = to
		o.onHist, o.onLazy = false, false
	}
	lp.hist = lp.hostedOnly(lp.hist)
	lp.lazy = lp.hostedOnly(lp.lazy)
	lp.rebuildSched()

	c := &capsule{from: lp.id, items: make([]capsuleItem, 0, len(batch))}
	floor := vtime.PosInf
	rawBytes, storedBytes := capsuleOverheadBytes, capsuleOverheadBytes
	for _, o := range batch {
		it := capsuleItem{o: o, pending: o.pending.Len()}
		if lp.au != nil {
			it.hash = audit.HashState(o.state)
			lp.au.MigrateOut(o.id, to, it.pending, it.hash)
		}
		stateRaw := stateSizeEstimate(o.state)
		stateStored := stateRaw
		if lp.cfg.Codec.CompressWire() {
			if ds, ok := o.state.(codec.DeltaState); ok {
				raw := ds.MarshalState(nil)
				it.stateEnc, it.comp = codec.Pack(lp.cfg.Codec, raw)
				stateRaw = len(raw)
				stateStored = len(it.stateEnc)
			}
		}
		evBytes := perPendingEventBytes * it.pending
		rawBytes += evBytes + stateRaw + o.stateQ.RawBytes()
		storedBytes += evBytes + stateStored + o.stateQ.StoredBytes()

		// The object's virtual-time floor: the minimum over its unprocessed
		// events and unresolved lazy outputs. Folding the batch minimum into
		// the GVT color accounting keeps GVT at or below everything in
		// flight.
		floor = vtime.Min(floor, vtime.Min(o.nextTime(), o.out.MinPending()))
		c.items = append(c.items, it)
	}
	lp.st.CapsuleRawBytes += int64(rawBytes)
	lp.st.CapsuleBytes += int64(storedBytes)
	if len(batch) > 1 {
		lp.st.BatchedMigrations += int64(len(batch))
	}
	lp.ep.SendMigration(to, c, floor, storedBytes)
}

// stateSizeEstimate is the byte size charged for a state travelling
// unencoded: its own estimate when it provides one, else 0 (the capsule
// overhead still applies).
func stateSizeEstimate(st model.State) int {
	if s, ok := st.(interface{ StateBytes() int }); ok {
		return s.StateBytes()
	}
	return 0
}

// install adopts the migrated objects arriving in p: rebind each to this LP,
// verify the capsule manifest, and only then flip the shared routing table —
// after the flip, events routed by the new entry arrive at an LP that is
// ready to execute the object.
func (lp *lpRun) install(p comm.Packet) {
	c := p.Capsule.(*capsule)
	for i := range c.items {
		it := &c.items[i]
		o := it.o

		if it.stateEnc != nil {
			// Decode the shipped state image; the audit hash below compares
			// it against what the source packed.
			raw, err := codec.Unpack(it.stateEnc, it.comp)
			if err != nil {
				panic("core: migration capsule decode failed: " + err.Error())
			}
			st, err := o.state.(codec.DeltaState).UnmarshalState(raw)
			if err != nil {
				panic("core: migration capsule state decode failed: " + err.Error())
			}
			o.state = st
		}

		o.lp = lp
		o.slot = len(lp.objs)
		lp.objs = append(lp.objs, o)
		lp.local[o.id] = o
		delete(lp.outbound, o.id) // the object may be coming back home
		lp.rebuildSched()

		// Rebind the pieces that point at the hosting LP: the output queue's
		// anti-message emitter, counters and event pool, and the controller
		// trace hooks. Events the object carried over recycle into the new
		// host's pool from now on.
		o.out.Rebind(lp.emitAnti, &lp.st, lp.pool)
		bindObjectHooks(lp, o)
		o.noteHistory()
		o.noteLazy()

		if lp.au != nil {
			o.au = lp.au.Adopt(o.au, o.id)
			lp.au.MigrateIn(o.id, c.from, it.pending, o.pending.Len(), it.hash, audit.HashState(o.state))
		}

		lp.st.Migrations++
		lp.st.MigratedEvents += int64(it.pending)
		epoch := lp.k.rt.Move(int(o.id), lp.id)
		lp.tr.Migration(int32(o.id), int32(c.from), int64(it.pending), int64(epoch))
	}
}

// hostedOnly filters an active list down to the objects this LP still hosts,
// reusing its storage.
func (lp *lpRun) hostedOnly(list []*simObject) []*simObject {
	kept := list[:0]
	for _, o := range list {
		if lp.local[o.id] == o {
			kept = append(kept, o)
		}
	}
	clear(list[len(kept):])
	return kept
}

// rebuildSched reassigns dense slots and rebuilds the schedule heap after
// this LP's hosted set changed. Migrations are rare (controller-period
// granularity), so the O(n) rebuild is irrelevant next to the per-event path.
func (lp *lpRun) rebuildSched() {
	lp.sched = pq.NewScheduleHeap(len(lp.objs))
	for i, o := range lp.objs {
		o.slot = i
		lp.refresh(o)
	}
}

// bindObjectHooks points o's controller hooks at lp's recorder. The codec
// switch hook always counts into lp's counters; trace hooks are cleared when
// tracing is off. Used at construction, at init (once the state queue
// exists), and re-used when a migrated object is installed on a new LP.
func bindObjectHooks(lp *lpRun, o *simObject) {
	sel := o.out.Selector()
	tr := lp.tr
	objID := int32(o.id)

	if o.stateQ != nil {
		if sc := o.stateQ.Codec(); sc != nil {
			st := &lp.st
			sc.Hook = func(toDelta bool, ratio float64) {
				st.CodecSwitches++
				tr.CodecSwitch(objID, toDelta, int64(ratio*1000))
			}
		}
	}

	if tr == nil {
		o.ckpt.Hook = nil
		sel.Hook = nil
		return
	}
	o.ckpt.Hook = func(oldChi, newChi int, ec time.Duration) {
		if oldChi != newChi {
			tr.CheckpointAdjust(objID, oldChi, newChi, ec)
		}
	}
	sel.Hook = func(to cancel.Strategy, hitRatio float64) {
		tr.StrategySwitch(objID, to == cancel.Lazy, int64(hitRatio*1000))
	}
}
