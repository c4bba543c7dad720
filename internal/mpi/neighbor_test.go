package mpi

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"cellgan/internal/grid"
)

// topology gives every rank its source and destination sets.
type topology struct {
	n              int
	sources, dests func(r int) []int
}

// gridTopology is the exchange shape of a toroidal grid: a cell receives
// from its neighbourhood and sends to its influence set (itself included
// when the pattern has a center).
func gridTopology(rows, cols int, pattern []grid.Offset) topology {
	g := grid.MustNew(rows, cols)
	if err := g.SetPattern(pattern); err != nil {
		panic(err)
	}
	return topology{n: g.Size(), sources: g.Neighborhood, dests: g.Influence}
}

// neighborPayload is what rank r sends in round k; lengths differ by rank
// so a part delivered to the wrong slot cannot pass for the right one.
func neighborPayload(r, k int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("<r%d k%d>", r, k)), 1+r)
}

// exchangeTag carries the neighbour exchange of these tests.
const exchangeTag = 3

// neighborAllgather is the neighbourhood exchange the training loop builds
// from point-to-point calls: one Multicast of data to dests, then one Recv
// from each source in order. Per-source FIFO on one tag hands a receiver
// its sources' messages round by round however far ahead they ran.
func neighborAllgather(c *Comm, sources, dests []int, data []byte) ([][]byte, error) {
	if err := c.Multicast(dests, exchangeTag, data); err != nil {
		return nil, err
	}
	parts := make([][]byte, len(sources))
	for i, r := range sources {
		m, err := c.Recv(r, exchangeTag)
		if err != nil {
			return nil, err
		}
		parts[i] = m.Data
	}
	return parts, nil
}

// neighborRounds runs rounds neighbour exchanges on c and checks that each
// returns exactly its sources' payloads of that round, in order.
func neighborRounds(c *Comm, top topology, rounds int) error {
	src, dst := top.sources(c.Rank()), top.dests(c.Rank())
	for k := 0; k < rounds; k++ {
		parts, err := neighborAllgather(c, src, dst, neighborPayload(c.Rank(), k))
		if err != nil {
			return err
		}
		if len(parts) != len(src) {
			return fmt.Errorf("rank %d round %d: %d parts for %d sources", c.Rank(), k, len(parts), len(src))
		}
		for i, s := range src {
			if !bytes.Equal(parts[i], neighborPayload(s, k)) {
				return fmt.Errorf("rank %d round %d: part %d is %q, want rank %d's", c.Rank(), k, i, parts[i], s)
			}
		}
	}
	return nil
}

// eachComm runs body on every communicator concurrently and fails the test
// on the first error.
func eachComm(t *testing.T, comms []*Comm, body func(c *Comm) error) {
	t.Helper()
	errs := make(chan error, len(comms))
	var wg sync.WaitGroup
	for _, c := range comms {
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			errs <- body(c)
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// worldComms returns n world communicators over the named transport.
func worldComms(t *testing.T, transport string, n int) []*Comm {
	t.Helper()
	if transport == "inproc" {
		w := MustWorld(n)
		t.Cleanup(w.Close)
		return w.Comms()
	}
	comms := make([]*Comm, n)
	for r, nd := range startTCPWorld(t, n) {
		c, err := nd.WorldComm()
		if err != nil {
			t.Fatal(err)
		}
		comms[r] = c
	}
	return comms
}

func TestNeighborAllgatherTopologies(t *testing.T) {
	tops := map[string]topology{
		// Two sources behind, two destinations ahead: no rank's source set
		// equals its destination set.
		"asymmetric": {n: 5,
			sources: func(r int) []int { return []int{(r + 4) % 5, (r + 3) % 5} },
			dests:   func(r int) []int { return []int{(r + 1) % 5, (r + 2) % 5} }},
		// Every offset pair of Moore5 wraps onto one cell on a 2×2 torus;
		// the sets must arrive de-duplicated or a payload is awaited twice.
		"2x2 moore5": gridTopology(2, 2, grid.Moore5),
		"3x3 moore5": gridTopology(3, 3, grid.Moore5),
		// All-to-all, self included.
		"3x3 moore9": gridTopology(3, 3, grid.Moore9),
		"3x3 ring4":  gridTopology(3, 3, grid.Ring4),
	}
	for _, transport := range []string{"inproc", "tcp"} {
		for name, top := range tops {
			t.Run(transport+"/"+name, func(t *testing.T) {
				eachComm(t, worldComms(t, transport, top.n), func(c *Comm) error {
					return neighborRounds(c, top, 3)
				})
			})
		}
	}
}

// TestNeighborAllgatherRoundsAhead: every rank of a chain finishes all its
// rounds before the next one starts, so a receiver finds every round of its
// source queued at once and must still hand them out round by round.
func TestNeighborAllgatherRoundsAhead(t *testing.T) {
	const n, rounds = 4, 5
	chain := topology{n: n,
		sources: func(r int) []int {
			if r == 0 {
				return nil
			}
			return []int{r - 1}
		},
		dests: func(r int) []int {
			if r == n-1 {
				return nil
			}
			return []int{r + 1}
		}}
	for _, transport := range []string{"inproc", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			done := make([]chan struct{}, n)
			for i := range done {
				done[i] = make(chan struct{})
			}
			eachComm(t, worldComms(t, transport, n), func(c *Comm) error {
				defer close(done[c.Rank()])
				if c.Rank() > 0 {
					<-done[c.Rank()-1]
				}
				return neighborRounds(c, chain, rounds)
			})
		})
	}
}

// TestNeighborAllgatherUnderFaults: a plan that duplicates and delays the
// user traffic on another tag around the exchange changes neither what it
// returns nor what the endpoint counters see of it.
func TestNeighborAllgatherUnderFaults(t *testing.T) {
	top := gridTopology(3, 3, grid.Moore5)
	const rounds, userTag = 4, 7
	plan := FaultPlan{Seed: 11, DupProb: 0.5, DelayProb: 0.5, Tags: []int{userTag}, Stats: &FaultStats{}}
	w := MustWorld(top.n)
	defer w.Close()
	stats := make([]CommStats, top.n)
	comms := make([]*Comm, top.n)
	for r := range comms {
		comms[r] = InstrumentComm(FaultyComm(w.MustComm(r), plan), &stats[r])
	}
	eachComm(t, comms, func(c *Comm) error {
		for k := 0; k < rounds; k++ {
			if err := c.Send((c.Rank()+1)%top.n, userTag, []byte("noise")); err != nil {
				return err
			}
		}
		return neighborRounds(c, top, rounds)
	})
	if plan.Stats.Dups.Load()+plan.Stats.Delays.Load() == 0 {
		t.Fatal("the plan injected nothing: the test exercised no fault")
	}
	for r := range comms {
		want := 0
		for _, s := range top.sources(r) {
			want += rounds * len(neighborPayload(s, 0))
		}
		if got := stats[r].RecvBytes.Load(); got != uint64(want) {
			t.Errorf("rank %d received %d bytes, want its sources' %d", r, got, want)
		}
	}
}

func TestNeighborAllgatherRejectsBadRanks(t *testing.T) {
	w := MustWorld(2)
	defer w.Close()
	c := w.MustComm(0)
	if _, err := neighborAllgather(c, []int{2}, nil, nil); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := neighborAllgather(c, nil, []int{-1}, nil); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
}
