package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"cellgan/internal/config"
	"cellgan/internal/mpi"
)

// neighbourState returns rank's snapshot of cfg's grid, stamped iteration
// iter.
func neighbourState(t *testing.T, cfg config.Config, rank, iter int) *CellState {
	t.Helper()
	c, _ := newTestCell(t, cfg, rank)
	s, err := c.State()
	if err != nil {
		t.Fatal(err)
	}
	s.Iteration = iter
	return s
}

// settleInstalls settles x and returns the snapshots it installed, as
// "src@iter".
func settleInstalls(t *testing.T, x *Exchange) []string {
	t.Helper()
	var got []string
	x.Installed = func(src, iter int) { got = append(got, fmt.Sprintf("%d@%d", src, iter)) }
	if _, err := x.Settle(nil); err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	return got
}

func TestExchangeNewestWins(t *testing.T) {
	cfg := tinyConfig() // 2×2: neighbourhood of 0 = {0,1,2}
	c0, _ := newTestCell(t, cfg, 0)
	x := NewExchange(c0, 2)
	x.Offer(neighbourState(t, cfg, 1, 0))
	x.Offer(neighbourState(t, cfg, 1, 1))
	if got := settleInstalls(t, x); !slices.Equal(got, []string{"1@1"}) {
		t.Fatalf("one drain installed %v, want only the newest, 1@1", got)
	}
	x.Offer(neighbourState(t, cfg, 1, 0))
	if got := settleInstalls(t, x); len(got) != 0 {
		t.Fatalf("a stale snapshot was installed after a newer one: %v", got)
	}
	x.Offer(neighbourState(t, cfg, 1, 1))
	if got := settleInstalls(t, x); !slices.Equal(got, []string{"1@1"}) {
		t.Fatalf("a duplicate of the installed snapshot was refused: %v", got)
	}
}

func TestExchangeGate(t *testing.T) {
	cfg := tinyConfig()
	c0, _ := newTestCell(t, cfg, 0)
	x := NewExchange(c0, 2)
	// A neighbour never heard from counts as version −1.
	if x.gated(nil) {
		t.Fatal("iteration 1 gated at W = 2 on a fresh grid")
	}
	c0.iteration = 1
	if !x.gated(nil) {
		t.Fatal("iteration 2 not gated with no neighbour heard from")
	}
	x.Offer(neighbourState(t, cfg, 1, 1))
	x.Offer(neighbourState(t, cfg, 2, 0))
	settleInstalls(t, x)
	if x.gated(nil) {
		t.Fatal("iteration 2 gated with neighbours at 1 and 0")
	}
	c0.iteration = 2
	if !x.gated(nil) {
		t.Fatal("iteration 3 not gated with neighbour 2 at 0")
	}
	if x.gated(map[int]bool{2: true}) {
		t.Fatal("an exempt neighbour held the gate")
	}
}

// TestExchangeWindowOneHolds: at W = 1 a fresh cell waits for every
// neighbour's first snapshot, and a neighbour's next one, arriving in the
// same drain, is held rather than installed or lost: it is what the
// cell's next boundary installs.
func TestExchangeWindowOneHolds(t *testing.T) {
	cfg := tinyConfig()
	c0, _ := newTestCell(t, cfg, 0)
	x := NewExchange(c0, 0) // raised to 1
	if !x.gated(nil) {
		t.Fatal("a fresh cell at W = 1 ran without its neighbours' centers")
	}
	for _, s := range []*CellState{neighbourState(t, cfg, 1, 1), neighbourState(t, cfg, 1, 0), neighbourState(t, cfg, 2, 0)} {
		x.Offer(s)
	}
	if got := settleInstalls(t, x); !slices.Equal(got, []string{"1@0", "2@0"}) {
		t.Fatalf("boundary 0 installed %v, want 1@0 and 2@0", got)
	}
	if x.gated(nil) {
		t.Fatal("boundary 0 still gated")
	}
	c0.iteration = 1
	x.Offer(neighbourState(t, cfg, 2, 1))
	if got := settleInstalls(t, x); !slices.Equal(got, []string{"1@1", "2@1"}) {
		t.Fatalf("boundary 1 installed %v, want the held 1@1 and 2@1", got)
	}
}

// TestExchangeRefreshesOncePerBoundary: a cell that stays at a boundary
// whose gate has opened — a finished cell the cluster slave keeps
// settling — is not refreshed again, so its mixture weights are not
// renormalised once per pass.
func TestExchangeRefreshesOncePerBoundary(t *testing.T) {
	cfg := tinyConfig()
	c0, _ := newTestCell(t, cfg, 0)
	x := NewExchange(c0, 1)
	x.Offer(neighbourState(t, cfg, 1, 0))
	x.Offer(neighbourState(t, cfg, 2, 0))
	settleInstalls(t, x)
	c0.Mixture().Weights[0] = 2 // what a second refresh would renormalise
	x.Offer(neighbourState(t, cfg, 1, 0))
	if ready, err := x.Settle(nil); err != nil || !ready {
		t.Fatalf("settle: ready %v, err %v", ready, err)
	}
	if w := c0.Mixture().Weights; w[0] != 2 {
		t.Fatalf("a settled boundary refreshed the mixture again: weights %v", w)
	}
}

// TestAsyncAbsorbReorderRegression seeds a delay/duplicate schedule into
// RunAsync's exchange traffic and asserts that no cell's view of a
// neighbour ever moves backwards. The drain-scoped newest-wins guard the
// absorb loop used to rely on cannot catch a delayed or duplicated
// snapshot that arrives a drain after a newer one was applied; the
// cross-drain StalenessTracker can, and this test fails without it.
func TestAsyncAbsorbReorderRegression(t *testing.T) {
	cfg := tinyConfig()
	cfg.Iterations = 10
	// A wide window so the staleness gate cannot mask reordering by
	// serialising the cells.
	cfg.AsyncStaleness = 32

	type pair struct{ dst, src int }
	var mu sync.Mutex
	totalApplied := 0
	var regressions []pair

	// The reordering the drain-scoped guard misses needs a delayed
	// snapshot to surface in a drain of its own: delay seq k (held behind
	// 2 later sends), deliver seq k+1, then delay seq k+2 — whose send
	// count-releases k all alone while k+2 itself stays held. Several
	// seeds are swept so the count-deterministic schedules line that
	// pattern up against enough drain boundaries.
	for _, seed := range []uint64{1, 2, 3} {
		applied := map[pair]int{}
		hooks := &Hooks{
			Installed: func(dst, src, iter, _ int) {
				mu.Lock()
				defer mu.Unlock()
				totalApplied++
				k := pair{dst, src}
				if prev, seen := applied[k]; seen && iter < prev {
					regressions = append(regressions, k)
				}
				if iter > applied[k] {
					applied[k] = iter
				}
			},
		}
		plan := mpi.FaultPlan{
			Seed:         seed,
			DupProb:      0.2,
			DelayProb:    0.5,
			MaxDelayHold: 2,
			Tags:         []int{stateTag},
		}
		res, err := RunAsync(cfg, RunOptions{
			hooks:    hooks,
			commWrap: func(rank int, c *mpi.Comm) *mpi.Comm { return mpi.FaultyComm(c, plan) },
			Progress: func(rank int, st IterStats) {
				// Mild seeded pacing decorrelates drain boundaries from
				// send times, so released stale messages meet empty
				// mailboxes instead of riding along with fresh ones.
				d := time.Duration(pacingHash(seed, rank, st.Iteration)%1500) * time.Microsecond
				time.Sleep(d)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Cells {
			if c.Last.Iteration != cfg.Iterations {
				t.Fatalf("seed %d: rank %d stopped at %d", seed, c.Rank, c.Last.Iteration)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if totalApplied == 0 {
		t.Fatal("no neighbour snapshots were applied")
	}
	if len(regressions) > 0 {
		t.Fatalf("delayed/duplicated snapshots regressed %d neighbour views: %v", len(regressions), regressions)
	}
}

// pacingHash derives a deterministic per-(rank, iteration) pacing delay,
// so the staleness property is checked under a randomized-but-seeded
// interleaving of the cell goroutines.
func pacingHash(seed uint64, rank, iter int) uint64 {
	x := seed ^ uint64(rank)*0x9e3779b97f4a7c15 ^ uint64(iter)*0xc2b2ae3d27d4eb4f
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TestRunAsyncStalenessBound drives RunAsync under seeded goroutine
// pacing and asserts the bounded-staleness contract: no cell ever absorbs
// a neighbour snapshot more than S versions behind that neighbour's last
// push before the drain it came from, and no neighbour view ever
// regresses. The push is read at the drain, not at the apply: a cell
// descheduled between the two can see its neighbour run on for more than
// S iterations, which says nothing about what the absorb chose.
func TestRunAsyncStalenessBound(t *testing.T) {
	cfg := tinyConfig()
	cfg.Iterations = 6
	cfg.AsyncStaleness = 3
	s := cfg.AsyncStaleness

	var lastPush [64]int64         // per-rank last pushed iteration
	drained := map[int][64]int64{} // per-rank lastPush at its latest drain
	type pair struct{ dst, src int }
	var mu sync.Mutex
	applied := map[pair]int{}
	type violation struct {
		dst, src, iter, pushed int
	}
	var bad []violation
	hooks := &Hooks{
		Pushed: func(src, iter int) {
			mu.Lock()
			if int64(iter) > lastPush[src] {
				lastPush[src] = int64(iter)
			}
			mu.Unlock()
		},
		Drained: func(dst int) {
			mu.Lock()
			drained[dst] = lastPush
			mu.Unlock()
		},
		Installed: func(dst, src, iter, _ int) {
			mu.Lock()
			defer mu.Unlock()
			k := pair{dst, src}
			if prev, seen := applied[k]; seen && iter < prev {
				bad = append(bad, violation{dst, src, iter, prev})
			}
			if iter > applied[k] {
				applied[k] = iter
			}
			if pushed := int(drained[dst][src]); pushed-iter > s {
				bad = append(bad, violation{dst, src, iter, pushed})
			}
		},
	}
	res, err := RunAsync(cfg, RunOptions{
		hooks: hooks,
		Progress: func(rank int, st IterStats) {
			// Deterministic uneven pacing: up to ~2 ms per iteration.
			d := time.Duration(pacingHash(7, rank, st.Iteration)%2000) * time.Microsecond
			time.Sleep(d)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if c.Last.Iteration != cfg.Iterations {
			t.Fatalf("rank %d stopped at %d", c.Rank, c.Last.Iteration)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bad) > 0 {
		t.Fatalf("staleness bound S=%d violated %d times, first: %+v", s, len(bad), bad[0])
	}
}
