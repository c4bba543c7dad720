package core

import (
	"sync"
	"testing"
	"time"

	"cellgan/internal/mpi"
)

func TestStalenessTrackerNewestWins(t *testing.T) {
	tr := NewStalenessTracker(2)
	if !tr.ShouldApply(1, 0) {
		t.Fatal("fresh source rejected")
	}
	tr.MarkApplied(1, 3)
	if tr.ShouldApply(1, 2) {
		t.Fatal("stale snapshot accepted after newer apply")
	}
	if !tr.ShouldApply(1, 3) {
		t.Fatal("duplicate of the current snapshot rejected")
	}
	if !tr.ShouldApply(1, 4) {
		t.Fatal("newer snapshot rejected")
	}
	// MarkApplied is monotonic even when called out of order.
	tr.MarkApplied(1, 1)
	if got := tr.AppliedIteration(1); got != 3 {
		t.Fatalf("applied iteration regressed to %d", got)
	}
}

func TestStalenessTrackerGate(t *testing.T) {
	tr := NewStalenessTracker(2)
	nbrs := []int{1, 2, 3}
	// Fresh grid: everything at iteration 0, next iteration is 1.
	if s := tr.Stale(1, nbrs); len(s) != 0 {
		t.Fatalf("fresh grid gated: %v", s)
	}
	// Next iteration 3 with all neighbours at 0 exceeds the window.
	if s := tr.Stale(3, nbrs); len(s) != 3 {
		t.Fatalf("want all stale, got %v", s)
	}
	tr.MarkApplied(2, 1)
	tr.MarkApplied(3, 2)
	if s := tr.Stale(3, nbrs); len(s) != 1 || s[0] != 1 {
		t.Fatalf("want [1], got %v", s)
	}
	if s := tr.Stale(4, nbrs); len(s) != 2 || s[0] != 1 || s[1] != 2 {
		t.Fatalf("want [1 2], got %v", s)
	}
}

func TestStalenessTrackerMinimumBound(t *testing.T) {
	tr := NewStalenessTracker(0)
	if tr.Bound() != 1 {
		t.Fatalf("bound %d, want 1", tr.Bound())
	}
	// A window of 1 must not gate the very first iteration.
	if s := tr.Stale(1, []int{1}); len(s) != 0 {
		t.Fatalf("first iteration gated: %v", s)
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
		hooks := &loopTestHooks{
			onApply: func(dst, src, iter int) {
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
	hooks := &loopTestHooks{
		onPush: func(src, iter int) {
			mu.Lock()
			if int64(iter) > lastPush[src] {
				lastPush[src] = int64(iter)
			}
			mu.Unlock()
		},
		onDrain: func(dst int) {
			mu.Lock()
			drained[dst] = lastPush
			mu.Unlock()
		},
		onApply: func(dst, src, iter int) {
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
