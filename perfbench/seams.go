package main

import (
	"gowarp"
	"gowarp/internal/comm"
	"gowarp/internal/model"
)

// The traced run decorates the kernel's public seams: every model object,
// the Context it is handed, its states, and (default engine only) the
// transport. The decorators time each call into the wrapped layer and add
// nothing else, so the kernel takes the same code paths as untraced.

// traceModel returns a copy of m whose objects record spans into tr.
func traceModel(m *gowarp.Model, tr *tracer) *gowarp.Model {
	out := &gowarp.Model{Name: m.Name, Partition: m.Partition, Objects: make([]gowarp.Object, len(m.Objects))}
	for i, o := range m.Objects {
		lp := int32(m.Partition[i])
		t := &tracedObject{inner: o, lp: lp, tr: tr}
		t.ctx = tracedContext{tr: tr, lp: lp}
		out.Objects[i] = t
	}
	return out
}

// tracedObject times model.Object.Execute as apps.execute.
type tracedObject struct {
	inner gowarp.Object
	lp    int32
	tr    *tracer
	// ctx is reused across calls: an object executes on one goroutine at a
	// time.
	ctx tracedContext
}

func (o *tracedObject) Name() string { return o.inner.Name() }

func (o *tracedObject) InitialState() gowarp.State {
	return wrapState(o.inner.InitialState(), o.lp, o.tr)
}

// Init counts the initial sends per LP (the pending population the pq
// replay uses) without timing them.
func (o *tracedObject) Init(ctx gowarp.Context, st gowarp.State) {
	o.ctx.Context, o.ctx.init = ctx, true
	o.inner.Init(&o.ctx, unwrapState(st))
	o.ctx.init = false
}

func (o *tracedObject) Execute(ctx gowarp.Context, st gowarp.State, ev *gowarp.Event) {
	s := o.tr.begin(spanExecute, o.lp, 0)
	o.ctx.Context, o.ctx.parent, o.ctx.cover = ctx, s.ID, newCoverage(s.Start, 1<<62)
	o.inner.Execute(&o.ctx, unwrapState(st), ev)
	o.tr.end(s, o.ctx.cover.covered)
}

// tracedContext times model.Context.Send as core.send, a child of the
// Execute span that made it.
type tracedContext struct {
	gowarp.Context
	tr     *tracer
	lp     int32
	parent uint64
	cover  coverage
	init   bool
}

func (c *tracedContext) Send(to gowarp.ObjectID, delay gowarp.VTime, kind uint32, payload []byte) {
	if c.init {
		l := c.tr.of(c.lp)
		l.mu.Lock()
		l.initSends++
		l.mu.Unlock()
		c.Context.Send(to, delay, kind, payload)
		return
	}
	s := c.tr.beginSend(c.lp, c.parent, len(payload))
	c.Context.Send(to, delay, kind, payload)
	c.cover.add(c.tr.endSend(s))
}

// tracedTransport times comm.Transport.Send as comm.send, including any wait
// on a full inbox.
type tracedTransport struct {
	comm.Transport
	tr *tracer
}

func (t *tracedTransport) Send(dst int, p comm.Packet, payloadBytes int) {
	s := t.tr.begin(spanCommSend, int32(p.From), 0)
	t.Transport.Send(dst, p, payloadBytes)
	t.tr.endCommSend(s)
}

// A traced state must implement exactly the optional interfaces its inner
// state does — model.Reusable (CopyInto), codec.DeltaState (MarshalState /
// UnmarshalState) and StateBytes — or the kernel would take another save or
// restore path. Each combination is its own type, built from one shared box
// and a mixin per optional method set.

type stateBox struct {
	inner gowarp.State
	lp    int32
	tr    *tracer
}

func (b *stateBox) box() *stateBox { return b }

// Clone is timed as statesave.copy.
func (b *stateBox) Clone() gowarp.State {
	s := b.tr.begin(spanCopy, b.lp, 0)
	c := b.inner.Clone()
	b.tr.end(s, 0)
	return wrapState(c, b.lp, b.tr)
}

type boxer interface{ box() *stateBox }

type byteSizer interface{ StateBytes() int }

type copyMixin struct{ b *stateBox }

// CopyInto is timed as statesave.copy. It refills the wrapper it is given, as
// the inner CopyInto refills its inner state.
func (m copyMixin) CopyInto(dst gowarp.State) gowarp.State {
	d, ok := dst.(boxer)
	if !ok {
		return m.b.Clone()
	}
	db := d.box()
	s := m.b.tr.begin(spanCopy, m.b.lp, 0)
	db.inner = m.b.inner.(model.Reusable).CopyInto(db.inner)
	m.b.tr.end(s, 0)
	return dst
}

type deltaMixin struct{ b *stateBox }

// MarshalState is timed as codec.marshal.
func (m deltaMixin) MarshalState(buf []byte) []byte {
	s := m.b.tr.begin(spanMarshal, m.b.lp, 0)
	buf = m.b.inner.(gowarp.DeltaState).MarshalState(buf)
	m.b.tr.end(s, 0)
	return buf
}

// UnmarshalState is timed as codec.marshal.
func (m deltaMixin) UnmarshalState(data []byte) (gowarp.State, error) {
	s := m.b.tr.begin(spanMarshal, m.b.lp, 0)
	st, err := m.b.inner.(gowarp.DeltaState).UnmarshalState(data)
	m.b.tr.end(s, 0)
	if err != nil {
		return nil, err
	}
	return wrapState(st, m.b.lp, m.b.tr), nil
}

type sizeMixin struct{ b *stateBox }

func (m sizeMixin) StateBytes() int { return m.b.inner.(byteSizer).StateBytes() }

type (
	stS struct{ *stateBox }
	stR struct {
		*stateBox
		copyMixin
	}
	stD struct {
		*stateBox
		deltaMixin
	}
	stB struct {
		*stateBox
		sizeMixin
	}
	stRD struct {
		*stateBox
		copyMixin
		deltaMixin
	}
	stRB struct {
		*stateBox
		copyMixin
		sizeMixin
	}
	stDB struct {
		*stateBox
		deltaMixin
		sizeMixin
	}
	stRDB struct {
		*stateBox
		copyMixin
		deltaMixin
		sizeMixin
	}
)

// wrapState boxes st in the traced type matching its optional interfaces.
func wrapState(st gowarp.State, lp int32, tr *tracer) gowarp.State {
	if st == nil {
		return nil
	}
	b := &stateBox{inner: st, lp: lp, tr: tr}
	_, r := st.(model.Reusable)
	_, d := st.(gowarp.DeltaState)
	_, z := st.(byteSizer)
	c, dm, sm := copyMixin{b}, deltaMixin{b}, sizeMixin{b}
	switch {
	case r && d && z:
		return stRDB{b, c, dm, sm}
	case r && d:
		return stRD{b, c, dm}
	case r && z:
		return stRB{b, c, sm}
	case d && z:
		return stDB{b, dm, sm}
	case r:
		return stR{b, c}
	case d:
		return stD{b, dm}
	case z:
		return stB{b, sm}
	}
	return stS{b}
}

// unwrapState returns the model's own state inside a traced one.
func unwrapState(st gowarp.State) gowarp.State {
	if b, ok := st.(boxer); ok {
		return b.box().inner
	}
	return st
}

// unwrapStates unwraps a run's final states before hashing.
func unwrapStates(sts []gowarp.State) []gowarp.State {
	out := make([]gowarp.State, len(sts))
	for i, s := range sts {
		out[i] = unwrapState(s)
	}
	return out
}
