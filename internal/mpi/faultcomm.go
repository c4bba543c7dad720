package mpi

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements deterministic fault injection: a middleware endpoint
// that wraps any transport (inproc or TCP) and injects message drops,
// duplicated deliveries, bounded delivery delays and one-way partitions —
// the failure modes of the best-effort queue the paper's jobs ran on
// (Cluster-UY preempts slave processes at will).
//
// Every decision is derived from (plan seed, sender rank, destination,
// tag, per-stream message count) and never from the wall clock, so a chaos
// scenario is bit-reproducible: the same (seed, schedule) pair yields the
// same faults on every run. Delays are expressed in *messages*, not
// milliseconds — a delayed message is held back until later sends on the
// same stream overtake it — which keeps the reordering schedule
// count-deterministic too.

// ErrCrashed is returned by operations on an endpoint whose rank was
// killed by an injected CrashPoint — the fault-injection analogue of a
// preempted cluster process.
var ErrCrashed = errors.New("mpi: rank crashed (injected fault)")

// Partition is a one-way link failure: messages from rank From to rank To
// whose per-stream sequence number falls in [FromSeq, ToSeq) are dropped.
// Tag scopes the window to one message stream; AnyTag partitions every
// user-tag stream of the (From, To) pair using a shared pair counter.
type Partition struct {
	From, To int
	Tag      int
	FromSeq  int
	ToSeq    int
}

// CrashPoint kills a rank after it completes AfterSends matching sends:
// the Nth matching send is still delivered, every operation after it fails
// with ErrCrashed. Tag selects which sends count; AnyTag counts every
// user-tag send.
type CrashPoint struct {
	Rank       int
	Tag        int
	AfterSends int
}

// FaultPlan is a deterministic chaos schedule. Probabilities are applied
// per message via a seeded hash of (rank, destination, tag, stream
// sequence), so two runs with the same plan inject identical faults.
// Collective-protocol messages (reserved tags) are never faulted: the plan
// targets the application protocol, not the transport bootstrap.
type FaultPlan struct {
	// Seed drives every probabilistic decision.
	Seed uint64
	// DropProb is the probability a message is silently discarded.
	DropProb float64
	// DupProb is the probability a message is delivered twice.
	DupProb float64
	// DelayProb is the probability a message is held back behind later
	// sends on its stream (a count-based reordering delay).
	DelayProb float64
	// MaxDelayHold bounds how many subsequent same-stream sends a delayed
	// message waits behind; 0 defaults to 2.
	MaxDelayHold int
	// Tags, when non-empty, restricts probabilistic faults to these tags.
	Tags []int
	// Partitions are scheduled one-way link failures.
	Partitions []Partition
	// Crashes are scheduled rank deaths.
	Crashes []CrashPoint
	// Stats, when non-nil, counts every injected fault as it fires, so a
	// chaos run can report what the schedule actually did. Shared across
	// the ranks of a job to aggregate, or per-rank to attribute.
	Stats *FaultStats
}

// FaultStats counts injected faults. All fields are atomic: ranks inject
// concurrently and telemetry scrapes read while they do.
type FaultStats struct {
	Drops          atomic.Uint64
	Dups           atomic.Uint64
	Delays         atomic.Uint64
	PartitionDrops atomic.Uint64
	Crashes        atomic.Uint64
}

// Active reports whether the plan injects anything at all.
func (p FaultPlan) Active() bool {
	return p.DropProb > 0 || p.DupProb > 0 || p.DelayProb > 0 ||
		len(p.Partitions) > 0 || len(p.Crashes) > 0
}

// holdFlushAge is the backstop for held (delayed) messages: a flusher
// releases anything held longer than this so a delayed final message on an
// otherwise-quiet stream cannot deadlock the job. In a live run the
// count-based release fires first; the backstop only matters when a stream
// goes silent, where both runs stall identically.
const holdFlushAge = 250 * time.Millisecond

// splitmix64 is the SplitMix64 finalizer, the repo's standard seeding hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// faultHash derives a decision value for one (message, salt) pair.
func faultHash(seed uint64, src, dst, tag, seq int, salt uint64) uint64 {
	h := splitmix64(seed ^ salt)
	h = splitmix64(h ^ uint64(int64(src))*0x9e3779b97f4a7c15)
	h = splitmix64(h ^ uint64(int64(dst))*0xc2b2ae3d27d4eb4f)
	h = splitmix64(h ^ uint64(int64(tag))*0x165667b19e3779f9)
	h = splitmix64(h ^ uint64(int64(seq)))
	return h
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

const (
	saltDrop  = 0xd6e8feb86659fd93
	saltDup   = 0xa3b195354a39b70d
	saltDelay = 0x1b03738712fad5c9
	saltHold  = 0x9c06faf4d023e3ab
)

// streamKey identifies one (destination, tag) message stream of a sender.
type streamKey struct {
	dst, tag int
}

// heldMsg is a delayed message awaiting release. It holds its own
// reference on a tracked payload until it is delivered or discarded.
type heldMsg struct {
	dst          int
	m            wireMsg
	releaseAfter int // same-stream sequence number that releases it
	heldAt       time.Time
}

// faultEndpoint wraps a real endpoint with the fault plan.
type faultEndpoint struct {
	inner endpoint
	plan  FaultPlan
	tags  map[int]bool // nil = all user tags

	mu       sync.Mutex
	streams  map[streamKey]*faultStream
	pairSeq  map[int]int // per-destination counter for AnyTag windows
	crashAt  map[int]int // crash-point index -> matching sends so far
	crashed  bool
	flusher  *time.Ticker
	stopOnce sync.Once
	stop     chan struct{}
}

// faultStream is the per-(dst, tag) counter and hold queue.
type faultStream struct {
	seq  int
	held []heldMsg
}

// FaultyComm wraps a communicator's transport with the fault plan and
// returns a communicator with identical group and rank whose traffic is
// subject to the schedule. Derive sub-communicators (Split, Dup) from the
// returned Comm so they inherit the faults. Wrapping with an inactive plan
// returns c unchanged.
func FaultyComm(c *Comm, plan FaultPlan) *Comm {
	if !plan.Active() {
		return c
	}
	if plan.MaxDelayHold <= 0 {
		plan.MaxDelayHold = 2
	}
	fe := &faultEndpoint{
		inner:   c.ep,
		plan:    plan,
		streams: make(map[streamKey]*faultStream),
		pairSeq: make(map[int]int),
		crashAt: make(map[int]int),
		stop:    make(chan struct{}),
	}
	if len(plan.Tags) > 0 {
		fe.tags = make(map[int]bool, len(plan.Tags))
		for _, t := range plan.Tags {
			fe.tags[t] = true
		}
	}
	nc, err := newComm(fe, c.id, c.group)
	if err != nil {
		// The group and rank come from a valid Comm; reconstruction cannot
		// fail.
		panic(err)
	}
	return nc
}

// inScope reports whether probabilistic faults apply to this tag.
func (fe *faultEndpoint) inScope(tag int) bool {
	if tag < 0 || tag >= maxUserTag {
		return false // never fault the collective protocol
	}
	if fe.tags == nil {
		return true
	}
	return fe.tags[tag]
}

// sendWorld applies the schedule to one outgoing message.
func (fe *faultEndpoint) sendWorld(dst int, m wireMsg) error {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	if fe.crashed {
		return ErrCrashed
	}
	if !fe.inScope(m.Tag) {
		return fe.inner.sendWorld(dst, m)
	}

	me := fe.inner.worldRank()
	key := streamKey{dst: dst, tag: m.Tag}
	st := fe.streams[key]
	if st == nil {
		st = &faultStream{}
		fe.streams[key] = st
	}
	seq := st.seq
	st.seq++
	pairSeq := fe.pairSeq[dst]
	fe.pairSeq[dst]++

	// Crash points: the matching send still goes out, then the rank dies.
	crashNow := false
	for i, cp := range fe.plan.Crashes {
		if cp.Rank != me {
			continue
		}
		if cp.Tag != AnyTag && cp.Tag != m.Tag {
			continue
		}
		fe.crashAt[i]++
		if fe.crashAt[i] >= cp.AfterSends {
			crashNow = true
		}
	}

	err := fe.deliverLocked(dst, m, st, seq, pairSeq, me)
	if crashNow {
		fe.crashLocked()
	}
	return err
}

// deliverLocked decides the fate of one in-scope message and releases any
// due held messages. Caller holds fe.mu.
func (fe *faultEndpoint) deliverLocked(dst int, m wireMsg, st *faultStream, seq, pairSeq, me int) error {
	// One-way partitions.
	for _, p := range fe.plan.Partitions {
		if p.From != me || p.To != dst {
			continue
		}
		w := seq
		if p.Tag == AnyTag {
			w = pairSeq
		} else if p.Tag != m.Tag {
			continue
		}
		if w >= p.FromSeq && w < p.ToSeq {
			if fe.plan.Stats != nil {
				fe.plan.Stats.PartitionDrops.Add(1)
			}
			fe.releaseDueLocked(st, seq)
			return nil // dropped by partition
		}
	}

	switch {
	case unit(faultHash(fe.plan.Seed, me, dst, m.Tag, seq, saltDrop)) < fe.plan.DropProb:
		// Dropped: the message vanishes but still advances the counters.
		if fe.plan.Stats != nil {
			fe.plan.Stats.Drops.Add(1)
		}
	case unit(faultHash(fe.plan.Seed, me, dst, m.Tag, seq, saltDup)) < fe.plan.DupProb:
		if fe.plan.Stats != nil {
			fe.plan.Stats.Dups.Add(1)
		}
		if err := fe.inner.sendWorld(dst, m); err != nil {
			return err
		}
		if err := fe.inner.sendWorld(dst, m); err != nil {
			return err
		}
	case unit(faultHash(fe.plan.Seed, me, dst, m.Tag, seq, saltDelay)) < fe.plan.DelayProb:
		if fe.plan.Stats != nil {
			fe.plan.Stats.Delays.Add(1)
		}
		hold := 1 + int(faultHash(fe.plan.Seed, me, dst, m.Tag, seq, saltHold)%uint64(fe.plan.MaxDelayHold))
		m.pay.hold()
		st.held = append(st.held, heldMsg{dst: dst, m: m, releaseAfter: seq + hold, heldAt: time.Now()})
		fe.ensureFlusherLocked()
	default:
		if err := fe.inner.sendWorld(dst, m); err != nil {
			return err
		}
	}
	fe.releaseDueLocked(st, seq)
	return nil
}

// releaseDueLocked delivers held messages whose release sequence has been
// reached, preserving FIFO order within the stream. Caller holds fe.mu.
func (fe *faultEndpoint) releaseDueLocked(st *faultStream, seq int) {
	for len(st.held) > 0 && st.held[0].releaseAfter <= seq {
		fe.sendHeldLocked(st)
	}
}

// sendHeldLocked delivers the stream's oldest held message and drops the
// reference it held. Caller holds fe.mu.
func (fe *faultEndpoint) sendHeldLocked(st *faultStream) {
	h := st.held[0]
	st.held = st.held[1:]
	_ = fe.inner.sendWorld(h.dst, h.m)
	h.m.pay.drop()
}

// ensureFlusherLocked starts the backstop flusher on first hold.
func (fe *faultEndpoint) ensureFlusherLocked() {
	if fe.flusher != nil {
		return
	}
	fe.flusher = time.NewTicker(holdFlushAge / 4)
	go func() {
		for {
			select {
			case <-fe.stop:
				return
			case <-fe.flusher.C:
				fe.flushAged()
			}
		}
	}()
}

// flushAged releases held messages older than the backstop age.
func (fe *faultEndpoint) flushAged() {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	if fe.crashed {
		return
	}
	now := time.Now()
	for _, st := range fe.streams {
		for len(st.held) > 0 && now.Sub(st.held[0].heldAt) >= holdFlushAge {
			fe.sendHeldLocked(st)
		}
	}
}

// crashLocked kills the rank: held messages are discarded and every
// subsequent operation fails. Caller holds fe.mu.
func (fe *faultEndpoint) crashLocked() {
	if fe.plan.Stats != nil {
		fe.plan.Stats.Crashes.Add(1)
	}
	fe.crashed = true
	for _, st := range fe.streams {
		for _, h := range st.held {
			h.m.pay.drop()
		}
		st.held = nil
	}
	fe.stopFlusher()
}

func (fe *faultEndpoint) stopFlusher() {
	fe.stopOnce.Do(func() { close(fe.stop) })
	if fe.flusher != nil {
		fe.flusher.Stop()
	}
}

func (fe *faultEndpoint) recvWorld(commID uint32, srcWorld, tag int) (wireMsg, error) {
	fe.mu.Lock()
	dead := fe.crashed
	fe.mu.Unlock()
	if dead {
		return wireMsg{}, ErrCrashed
	}
	return fe.inner.recvWorld(commID, srcWorld, tag)
}

func (fe *faultEndpoint) probe(commID uint32, srcWorld, tag int) (bool, error) {
	fe.mu.Lock()
	dead := fe.crashed
	fe.mu.Unlock()
	if dead {
		return false, ErrCrashed
	}
	p, ok := fe.inner.(interface {
		probe(commID uint32, srcWorld, tag int) (bool, error)
	})
	if !ok {
		return false, errors.New("mpi: transport does not support Probe")
	}
	return p.probe(commID, srcWorld, tag)
}

func (fe *faultEndpoint) tryRecvWorld(commID uint32, srcWorld, tag int) (wireMsg, bool, error) {
	fe.mu.Lock()
	dead := fe.crashed
	fe.mu.Unlock()
	if dead {
		return wireMsg{}, false, ErrCrashed
	}
	tr, ok := fe.inner.(interface {
		tryRecvWorld(commID uint32, srcWorld, tag int) (wireMsg, bool, error)
	})
	if !ok {
		return wireMsg{}, false, errors.New("mpi: transport does not support TryRecv")
	}
	return tr.tryRecvWorld(commID, srcWorld, tag)
}

func (fe *faultEndpoint) worldRank() int { return fe.inner.worldRank() }
func (fe *faultEndpoint) worldSize() int { return fe.inner.worldSize() }

func (fe *faultEndpoint) close() error {
	fe.mu.Lock()
	fe.stopFlusher()
	fe.mu.Unlock()
	return fe.inner.close()
}
