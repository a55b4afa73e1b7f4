package mac

import (
	"cmp"
	"math"
	"slices"

	"csmabw/internal/sim"
)

// This file holds the busy-period resolver: every busy period, on any
// topology, is a *cluster* of possibly overlapping transmissions. The
// cluster is seeded by the countdowns expiring at the busy period's
// start; a station that hears none of the ongoing transmitters keeps
// counting down and can start mid-air — the hidden-terminal effect. On
// a full mesh every station hears the seed, so the cluster cannot grow
// and resolves to one exchange or one same-slot collision.
//
// The cluster is resolved at the common receiver, which hears every
// station. Per the package-comment simplifications, control frames are
// never corrupted, and stations outside the cluster resume contention
// no earlier than the cluster's end.

// clusterEntry is one transmission inside a busy cluster.
type clusterEntry struct {
	s   *station
	f   *Frame
	rts bool

	start   sim.Time // airtime start
	airEnd  sim.Time // end of the frame's own airtime (RTS, or the data frame)
	dataEnd sim.Time // end of the data frame if the exchange proceeds
	exchEnd sim.Time // end of the full exchange including the ACK
	// vulnEnd is the last instant a hidden joiner can disrupt this
	// entry: the end of the data frame, or — with RTS/CTS — the end of
	// the CTS, after which every station has heard the receiver's CTS
	// and defers for the rest of the exchange (the NAV reservation; the
	// collision-window shortening RTS/CTS exists for).
	vulnEnd sim.Time

	disrupted bool // overlapped at the receiver by another entry
	captured  bool // overlapped, but decoded through the capture rule
	corrupted bool // no (effective) overlap, but failed the channel error trial
}

// failed reports whether the entry's exchange did not complete: a
// collision the receiver could not capture, or a channel error.
func (en *clusterEntry) failed() bool { return en.disrupted && !en.captured || en.corrupted }

// clusterCand is a station whose countdown was still running when the
// busy period started: it either joins the cluster or freezes.
type clusterCand struct {
	s      *station
	expiry sim.Time
	// frozenAt is the instant the countdown froze (notFrozen while it
	// keeps running); heardTx records that a transmitter, not just the
	// receiver, froze it.
	frozenAt sim.Time
	heardTx  bool
}

const notFrozen = sim.Time(-1)

// addEntry appends to the engine's entry scratch the exchange timeline
// of s's head-of-line frame starting at start, built in place, and
// marks s as a cluster member.
func (e *Engine) addEntry(s *station, start sim.Time) {
	f := s.hol()
	en := &e.entries[e.nEntries]
	e.nEntries++
	s.inTx = true
	// Field by field: assigning a composite literal to *en costs a
	// bulk write barrier over the whole struct on every busy period.
	en.s, en.f, en.start, en.rts = s, f, start, e.usesRTS(f)
	en.disrupted, en.captured, en.corrupted = false, false, false
	if en.rts {
		rtsEnd := start + e.rtsT
		ctsEnd := rtsEnd + e.phy.SIFS + e.ctsT
		en.airEnd = rtsEnd
		en.vulnEnd = ctsEnd
		en.dataEnd = ctsEnd + e.phy.SIFS + e.dataTxTime(s, f.Size)
	} else {
		en.airEnd = start + e.dataTxTime(s, f.Size)
		en.dataEnd = en.airEnd
		en.vulnEnd = en.airEnd
	}
	en.exchEnd = en.dataEnd + e.phy.SIFS + e.ackT
}

// endCountdown retires a post-backoff countdown that expired with an
// empty queue: the station returns to the fully idle state.
func (e *Engine) endCountdown(s *station) {
	s.backoff = -1
	s.postBO = false
	e.nActive--
}

// transmitCluster resolves the busy period starting at txAt: it forms
// the cluster seeded by the countdowns expiring at txAt, grows it with
// hidden stations whose countdowns keep running, resolves every
// transmission at the common receiver, and advances the clock to the
// cluster's end. All iteration is in (time, station id) order and all
// randomness comes from the engine's own generators, so runs are
// deterministic for a given config and seed. It allocates nothing: the
// entries and candidates live in engine-owned scratch sized at init.
func (e *Engine) transmitCluster(txAt sim.Time) {
	slot := e.phy.Slot
	e.nEntries = 0
	nCands := 0
	for _, s := range e.stations {
		if s.backoff < 0 {
			continue
		}
		start := e.senseStart(s)
		t := start + sim.Time(s.backoff)*slot
		if t <= txAt {
			if s.hol() == nil {
				e.endCountdown(s)
				continue
			}
			e.addEntry(s, txAt)
			continue
		}
		if !e.multi {
			// Every station hears the seed transmissions, which start
			// before this countdown expires: it freezes at txAt.
			decrementTo(s, start, txAt, slot)
			continue
		}
		e.cands[nCands] = clusterCand{s: s, expiry: t, frozenAt: notFrozen}
		nCands++
	}
	e.now = txAt
	cands := e.cands[:nCands]
	if e.nEntries == 0 {
		// No transmission happened; the others counted down to txAt.
		for i := range cands {
			c := &cands[i]
			decrementTo(c.s, e.senseStart(c.s), txAt, slot)
		}
		return
	}
	e.growCluster(cands)
	entries := e.entries[:e.nEntries]

	// Resolve at the common receiver: an entry is disrupted when any
	// other entry's airtime overlaps its vulnerable window. Capture can
	// rescue a disrupted entry whose power margin over every overlapping
	// transmission meets the threshold.
	if len(entries) > 1 {
		for i := range entries {
			en := &entries[i]
			strongest := math.Inf(-1)
			for j := range entries {
				other := &entries[j]
				if i != j && other.start < en.vulnEnd && other.airEnd > en.start {
					en.disrupted = true
					strongest = max(strongest, other.s.power)
				}
			}
			if en.disrupted && e.captureOn && en.s.power-strongest >= e.cfg.Channel.CaptureThresholdDB {
				en.captured = true
			}
		}
	}

	// Channel error trials for the frames the receiver decodes, in entry
	// order. The cluster ends when its last exchange (or doomed airtime)
	// ends. receiverSpoke records whether the common receiver
	// transmitted at all (a CTS for a clean RTS handshake, or an ACK for
	// a delivered frame): only then do stations hidden from every
	// transmitter learn the medium was busy.
	end := txAt
	receiverSpoke := false
	for i := range entries {
		en := &entries[i]
		t := en.exchEnd
		switch {
		case en.disrupted && !en.captured:
			t = en.airEnd
		case e.lossy && e.chrng.Float64() < en.s.loss.FrameErrorProb(en.f.Size):
			en.corrupted = true
			t = en.dataEnd
			receiverSpoke = receiverSpoke || en.rts
		default:
			receiverSpoke = true
		}
		end = max(end, t)
	}
	e.now = end

	// Frozen countdowns decrement by the slots elapsed before their
	// freeze instant. A station that heard no transmitter froze only if
	// the receiver spoke (its CTS/ACK reaches everyone); with the
	// receiver silent too, the station sensed an idle medium throughout
	// and its countdown — an absolute expiry — continues untouched, so
	// it may start the next busy period immediately. That re-collision
	// pressure is the hidden-terminal pathology RTS/CTS exists to fix.
	for i := range cands {
		c := &cands[i]
		if c.frozenAt != notFrozen && (c.heardTx || receiverSpoke) {
			decrementTo(c.s, e.senseStart(c.s), c.frozenAt, slot)
		}
	}

	// Per-entry outcomes, in airtime order (seed entries in station
	// order, then joiners in expiry order).
	for i := range entries {
		en := &entries[i]
		s, f := en.s, en.f
		if !en.failed() {
			e.deliver(s, f, en.start, en.dataEnd, en.exchEnd, en.captured)
			continue
		}
		st := &e.res.Stats[s.id]
		st.Attempts++
		if e.cfg.OnEvent != nil {
			e.cfg.OnEvent(Event{At: en.start, Kind: EvTxStart, Station: s.id,
				Size: f.Size, Probe: f.Probe, Index: f.Index, Retries: s.retries, AC: s.ac})
		}
		if en.corrupted {
			st.ChannelErrors++
			if e.cfg.OnEvent != nil {
				e.cfg.OnEvent(Event{At: en.dataEnd, Kind: EvPhyError, Station: s.id,
					Size: f.Size, Probe: f.Probe, Index: f.Index, Retries: s.retries, AC: s.ac})
			}
		} else {
			st.Collisions++
			if e.cfg.OnEvent != nil {
				e.cfg.OnEvent(Event{At: en.start, Kind: EvCollision, Station: s.id,
					Size: f.Size, Probe: f.Probe, Index: f.Index, Retries: s.retries, AC: s.ac})
			}
		}
		e.retryFail(s, end)
	}

	e.settleBystanders(entries, end, receiverSpoke)

	// A lone clean exchange keeps its station's transmit opportunity.
	// The burst runs before Run admits the arrivals that landed during
	// the busy period, so frames arriving mid-burst do not join it.
	if en := &entries[0]; len(entries) == 1 && !en.failed() && en.s.txop > 0 {
		e.txopBurst(en.s, txAt)
	}
}

// growCluster grows the seed entries with the candidates that hear none
// of them. Candidates are processed in expiry order: a candidate that
// hears a transmission already on the air froze at that transmission's
// start; one that hears nothing keeps counting, and transmits if it
// expires while the receiver is still vulnerable. Candidates expiring
// after the vulnerable window have heard the receiver's CTS/ACK by then
// and freeze. On a full mesh the first pass already froze every
// candidate, so there is nothing to grow.
func (e *Engine) growCluster(cands []clusterCand) {
	if len(cands) == 0 {
		return
	}
	slices.SortFunc(cands, func(a, b clusterCand) int {
		if c := cmp.Compare(a.expiry, b.expiry); c != 0 {
			return c
		}
		return cmp.Compare(a.s.id, b.s.id)
	})
	vulnEnd := sim.Time(0)
	for i := range e.entries[:e.nEntries] {
		vulnEnd = max(vulnEnd, e.entries[i].vulnEnd)
	}
	for i := range cands {
		c := &cands[i]
		heard := sim.MaxTime
		for j := range e.entries[:e.nEntries] {
			en := &e.entries[j]
			// A transmission starting in the same slot as c's expiry
			// cannot be sensed in time: both stations transmit.
			if en.start < c.expiry && en.start < heard && e.hears(c.s.id, en.s.id) {
				heard = en.start
			}
		}
		switch {
		case heard != sim.MaxTime:
			c.frozenAt, c.heardTx = heard, true
		case c.expiry < vulnEnd:
			if c.s.hol() == nil {
				e.endCountdown(c.s)
				continue
			}
			e.addEntry(c.s, c.expiry)
			vulnEnd = max(vulnEnd, e.entries[e.nEntries-1].vulnEnd)
		default:
			// Expired past the vulnerable window: by then the station
			// has heard the receiver's CTS/ACK — if the receiver sent
			// one at all; otherwise its countdown continues untouched
			// (resolved once the outcomes are known).
			c.frozenAt = vulnEnd
		}
	}
}

// settleBystanders applies what every station defers with next. Cluster
// members resume after the cluster's end (their own outcome set their
// EIFS state). For the others it depends on what they could hear: a
// heard collision forces EIFS; a heard corrupted frame triggers the
// bystander's own decode trial (its copy crossed an independent
// channel); a heard clean exchange clears any pending EIFS; hearing
// nothing leaves the station untouched.
func (e *Engine) settleBystanders(entries []clusterEntry, end sim.Time, receiverSpoke bool) {
	for _, o := range e.stations {
		if o.inTx {
			o.inTx = false
			o.idleAt = end
			continue
		}
		heardCollision, heardCorrupt, heardClean := false, false, false
		for i := range entries {
			en := &entries[i]
			if !e.hears(o.id, en.s.id) {
				continue
			}
			switch {
			case en.disrupted && !en.captured:
				heardCollision = true
			case en.corrupted:
				heardCorrupt = true
			default:
				heardClean = true
			}
		}
		if !heardCollision && !heardCorrupt && !heardClean && !receiverSpoke {
			// The station heard neither a transmitter nor the receiver:
			// from its perspective the medium stayed idle and nothing
			// about its state changes.
			continue
		}
		o.idleAt = end
		switch {
		case heardCollision:
			o.eifs = true
		case heardCorrupt:
			bad := false
			for i := range entries {
				en := &entries[i]
				if en.corrupted && e.hears(o.id, en.s.id) &&
					e.chrng.Float64() < en.s.loss.FrameErrorProb(en.f.Size) {
					bad = true
				}
			}
			o.eifs = bad
		default:
			// A clean data exchange, or at least the receiver's own
			// CTS/ACK, was decodable: any pending EIFS is cleared.
			o.eifs = false
		}
	}
}

// decrementTo decrements s's frozen countdown by the whole slots that
// elapsed between its sensing start and the freeze instant.
func decrementTo(s *station, senseStart, freezeAt, slot sim.Time) {
	if freezeAt <= senseStart {
		return
	}
	elapsed := int((freezeAt - senseStart) / slot)
	if elapsed > s.backoff {
		elapsed = s.backoff
	}
	s.backoff -= elapsed
}
