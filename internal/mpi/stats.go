package mpi

import "sync/atomic"

// CommStats counts the traffic of one process's communicator endpoint.
// All fields are atomic, so a telemetry scrape can read them while the
// training loop is mid-collective. Counts are taken at the endpoint, so
// every transport-level message is counted once — including collective
// protocol traffic and duplicates injected by an inner fault layer when
// the stats wrap is applied outside FaultyComm (the recommended order:
// wrap faults first, stats last, so the stats see what actually enters
// the wire).
type CommStats struct {
	SentMessages atomic.Uint64
	SentBytes    atomic.Uint64
	RecvMessages atomic.Uint64
	RecvBytes    atomic.Uint64
}

// statsEndpoint is a counting middleware endpoint, the same wrapping
// pattern as faultEndpoint.
type statsEndpoint struct {
	inner endpoint
	st    *CommStats
}

// InstrumentComm wraps a communicator's transport so every message and
// byte it sends or receives is counted in st. The returned communicator
// has the same group and rank; derive sub-communicators (Split) from
// it so they share the counters. A nil st returns c unchanged.
func InstrumentComm(c *Comm, st *CommStats) *Comm {
	if st == nil {
		return c
	}
	nc, err := newComm(&statsEndpoint{inner: c.ep, st: st}, c.id, c.group)
	if err != nil {
		// The group and rank come from a valid Comm; reconstruction cannot
		// fail.
		panic(err)
	}
	return nc
}

func (se *statsEndpoint) sendWorld(dst int, m wireMsg) error {
	if err := se.inner.sendWorld(dst, m); err != nil {
		return err
	}
	se.st.SentMessages.Add(1)
	se.st.SentBytes.Add(uint64(len(m.Data)))
	return nil
}

func (se *statsEndpoint) recvWorld(commID uint32, srcWorld, tag int) (wireMsg, error) {
	m, err := se.inner.recvWorld(commID, srcWorld, tag)
	if err != nil {
		return m, err
	}
	se.st.RecvMessages.Add(1)
	se.st.RecvBytes.Add(uint64(len(m.Data)))
	return m, nil
}

func (se *statsEndpoint) tryRecvWorld(commID uint32, srcWorld, tag int) (wireMsg, bool, error) {
	m, ok, err := se.inner.tryRecvWorld(commID, srcWorld, tag)
	if err != nil || !ok {
		return m, ok, err
	}
	se.st.RecvMessages.Add(1)
	se.st.RecvBytes.Add(uint64(len(m.Data)))
	return m, true, nil
}

func (se *statsEndpoint) worldRank() int { return se.inner.worldRank() }
func (se *statsEndpoint) worldSize() int { return se.inner.worldSize() }
func (se *statsEndpoint) close() error   { return se.inner.close() }
