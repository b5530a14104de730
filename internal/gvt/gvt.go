// Package gvt computes Global Virtual Time — the floor of the simulation's
// progress, below which no rollback can ever reach — with a Mattern-style
// token-ring protocol using colored messages.
//
// Every logical event is colored with its sender's current color when it
// enters the communication layer. A GVT computation (an "epoch") flips every
// LP from white to red as the token first visits it; the token accumulates
// (a) the minimum of the LPs' local virtual-time minima, (b) the minimum
// receive time of red messages sent so far, and (c) the number of white
// messages still in transit (sum over LPs of white-sent minus
// white-received). The token circulates until a round ends with zero white
// messages in transit; GVT is then min((a) of the final round, (b)), which
// is safe because any message that could regress an LP below (a) is either
// white — contradiction with (c) == 0 — or red and therefore included in (b).
//
// LP 0 initiates computations on a wall-clock period and broadcasts the
// result. Colors alternate between epochs, so the accounting needs only two
// counter pairs per LP (owned by the communication endpoint).
//
// Object migration capsules ride the same accounting: the endpoint colors a
// capsule like an event message, counts it in the sender's sent tally, and
// folds the capsule's virtual-time floor (the minimum over its carried
// pending events and unsent anti-messages) into the red minimum. An
// in-flight capsule therefore holds GVT back exactly like a transient
// message, so the token can never report a floor above state that is still
// on the wire.
package gvt

import (
	"time"

	"gowarp/internal/comm"
	"gowarp/internal/stats"
	"gowarp/internal/vtime"
)

// Manager runs the GVT protocol for one logical process. All methods must be
// called from the owning LP goroutine.
type Manager struct {
	lp, numLPs int
	ep         *comm.Endpoint
	period     time.Duration
	st         *stats.Counters

	epoch      uint64
	inProgress bool // initiator only
	lastStart  time.Time
	due        time.Time // clock reading of the last Due that reported true
	startedAt  time.Time
	gvt        vtime.Time

	// Rounds accumulates token circulations, for reports on protocol cost.
	Rounds int64

	// OnCycle, when non-nil, observes each completed GVT computation on the
	// initiator: the new value, the token rounds it took, and its
	// initiation-to-completion wall time. Called from the LP goroutine.
	OnCycle func(g vtime.Time, rounds int64, took time.Duration)

	// Audit, when non-nil, observes every token completing a circle at the
	// initiator — the white in-transit count and the two minima — before the
	// completion decision. Wired by the runtime invariant auditor; called
	// from the LP goroutine.
	Audit func(count int64, m, mmsg vtime.Time)
}

// NewManager returns a manager for lp of numLPs, initiating (on LP 0 only)
// every period of wall-clock time.
func NewManager(lp, numLPs int, ep *comm.Endpoint, period time.Duration, st *stats.Counters) *Manager {
	if period <= 0 {
		period = time.Millisecond
	}
	return &Manager{
		lp:     lp,
		numLPs: numLPs,
		ep:     ep,
		period: period,
		st:     st,
		gvt:    vtime.NegInf,
	}
}

// GVT returns the last value this LP learned.
func (m *Manager) GVT() vtime.Time { return m.gvt }

// Apply records a broadcast GVT value on a non-initiator.
func (m *Manager) Apply(g vtime.Time) { m.gvt = g }

// Period returns the initiation period.
func (m *Manager) Period() time.Duration { return m.period }

func (m *Manager) next() int { return (m.lp + 1) % m.numLPs }

// red returns the color LPs flip to during epoch e.
func red(e uint64) uint8 { return uint8(e & 1) }

// Due reports whether this LP should start a new computation now: it is the
// initiator, none is in progress, and the period has elapsed (or force is
// set — used when the LP has gone idle and progress now depends on GVT
// advancing). It reads the clock once; when it reports true the caller
// computes its local minimum and passes it to Initiate. Splitting the check
// from the initiation keeps the local-minimum scan off every call that
// finds no cycle due.
func (m *Manager) Due(force bool) bool {
	if m.lp != 0 || m.inProgress {
		return false
	}
	now := time.Now()
	elapsed := now.Sub(m.lastStart)
	if !force && elapsed < m.period {
		return false
	}
	if force && elapsed < m.period/8 {
		// Idle LPs force GVT so termination is detected promptly, but a
		// floor keeps an idle initiator from spinning the token nonstop.
		return false
	}
	m.due = now
	return true
}

// Initiate starts the computation Due just reported due; localMin is the
// LP's current local virtual-time minimum. With a single LP the result is
// immediate: it returns (localMin, true); otherwise found is reported by a
// later OnToken call.
func (m *Manager) Initiate(localMin vtime.Time) (g vtime.Time, found bool) {
	m.lastStart = m.due
	m.startedAt = m.lastStart
	if m.numLPs == 1 {
		if m.Audit != nil {
			m.Audit(0, localMin, vtime.PosInf)
		}
		m.gvt = localMin
		m.st.GVTCycles++
		if m.OnCycle != nil {
			m.OnCycle(localMin, 0, time.Since(m.startedAt))
		}
		return localMin, true
	}
	m.inProgress = true
	m.epoch++
	white := red(m.epoch) ^ 1
	m.ep.FlipColor(red(m.epoch))
	sent, recv := m.ep.Counts(white)
	m.ep.SendToken(m.next(), comm.Token{
		M:     localMin,
		MMsg:  vtime.PosInf,
		Count: sent - recv,
		Epoch: m.epoch,
	})
	return 0, false
}

// OnToken processes an arriving token. On the initiator it either finishes
// the computation — returning (gvt, true); the caller must then broadcast
// and fossil-collect — or starts another round. On other LPs it contributes
// the local counts and forwards the token.
func (m *Manager) OnToken(tok comm.Token, localMin vtime.Time) (g vtime.Time, found bool) {
	m.Rounds++
	m.st.GVTRounds++
	white := red(tok.Epoch) ^ 1
	if m.lp == 0 {
		if m.Audit != nil {
			m.Audit(tok.Count, tok.M, tok.MMsg)
		}
		if tok.Count == 0 {
			// No white messages in transit: the cut is consistent.
			m.inProgress = false
			m.gvt = vtime.Min(tok.M, tok.MMsg)
			m.st.GVTCycles++
			took := time.Since(m.startedAt)
			m.st.GVTTime += took
			if m.OnCycle != nil {
				m.OnCycle(m.gvt, int64(tok.Round)+1, took)
			}
			return m.gvt, true
		}
		// Whites still in transit; circulate another round with fresh
		// counts. Flushing keeps buffered whites moving toward delivery.
		m.ep.FlushAll(comm.FlushIdle)
		sent, recv := m.ep.Counts(white)
		m.ep.SendToken(m.next(), comm.Token{
			M:     localMin,
			MMsg:  vtime.Min(tok.MMsg, m.ep.TMin()),
			Count: sent - recv,
			Round: tok.Round + 1,
			Epoch: tok.Epoch,
		})
		return 0, false
	}
	if m.ep.Color() != red(tok.Epoch) {
		m.ep.FlipColor(red(tok.Epoch)) // flushes buffers first
	} else {
		// Later rounds: still flush so in-transit whites drain.
		m.ep.FlushAll(comm.FlushIdle)
	}
	sent, recv := m.ep.Counts(white)
	tok.M = vtime.Min(tok.M, localMin)
	tok.MMsg = vtime.Min(tok.MMsg, m.ep.TMin())
	tok.Count += sent - recv
	m.ep.SendToken(m.next(), tok)
	return 0, false
}
