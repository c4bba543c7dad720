package core

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"cellgan/internal/mpi"
	"cellgan/internal/nn"
	"cellgan/internal/tensor"
)

// paramsHash hashes a generator/discriminator pair's parameters as a push
// carries them.
func paramsHash(gen, disc *nn.Network) [sha256.Size]byte {
	return sha256.Sum256(tensor.AppendAlignedMats(tensor.AppendAlignedMats(nil, gen.Params()), disc.Params()))
}

// TestPushesStayUnwritten is the write-through guard of the kept
// neighbour views: a kept pair's parameters are the bytes of the push it
// was installed from, shared with every other receiver of that push and
// with the sender's next Reuse, so a write through a view, or a sender
// writing a push still viewed, corrupts a neighbour for every cell that
// reads it. A 3×3 grid of drivers, at W = 1 and at W = 4, hashes each
// push's parameters as its sender multicasts it; each receiver hashes
// every view it holds as it installs it, before each settle (the last of
// which precedes the view's release, when the next push from that source
// is installed) and after the run, and every hash must match the
// sender's. Adoptions copy out of the views and the WGAN discriminators
// clip their own weights after every step, the writes nearest the views.
func TestPushesStayUnwritten(t *testing.T) {
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
			cfg := tinyConfig().WithGrid(3, 3)
			cfg.Iterations, cfg.LossSet = 6, "wgan,lsgan,bce"
			n := cfg.NumCells()
			cells := make([]*Cell, n)
			for r := range cells {
				cells[r], _ = newTestCell(t, cfg, r)
			}
			type push struct{ src, iter int }
			var mu sync.Mutex
			sent := map[push][sha256.Size]byte{}
			installed := make([]map[int]int, n) // per receiver, confined to its goroutine
			checked, adoptions, clipped := 0, 0, 0
			check := func(dst, src, iter int, when string) {
				p := cells[dst].kept[src]
				got := paramsHash(p.gen.Net, p.disc.Net)
				mu.Lock()
				defer mu.Unlock()
				want, ok := sent[push{src, iter}]
				if !ok {
					return // the sender has not recorded it yet; a later check will
				}
				checked++
				if got != want {
					t.Errorf("rank %d's view of rank %d's push of iteration %d changed (%s)", dst, src, iter, when)
				}
			}
			hooks := &Hooks{
				Pushed: func(src, iter int) {
					h := paramsHash(cells[src].gen.Net, cells[src].disc.Net)
					mu.Lock()
					sent[push{src, iter}] = h
					mu.Unlock()
				},
				Drained: func(dst int) {
					for src, iter := range installed[dst] {
						check(dst, src, iter, "before a settle")
					}
				},
				Installed: func(dst, src, iter, _ int) {
					installed[dst][src] = iter
					check(dst, src, iter, "at install")
				},
			}
			progress := func(rank int, st IterStats) {
				mu.Lock()
				defer mu.Unlock()
				if st.GenReplaced || st.DiscReplaced {
					adoptions++
				}
				if cells[rank].disc.Loss == LossWGAN {
					clipped++
				}
			}
			world := mpi.MustWorld(n)
			defer world.Close()
			var wg sync.WaitGroup
			for r := range cells {
				installed[r] = map[int]int{}
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					d := &Driver{Comm: world.MustComm(r), Tag: stateTag, Window: w, Target: cfg.Iterations, Progress: progress, Hooks: hooks}
					d.Own(cells[r])
					if err := d.Run(); err != nil {
						t.Error(err)
					}
				}(r)
			}
			wg.Wait()
			for dst := range cells {
				for src, iter := range installed[dst] {
					check(dst, src, iter, "after the run")
				}
			}
			t.Logf("%d view checks, %d adoptions, %d WGAN discriminator iterations", checked, adoptions, clipped)
			if adoptions == 0 || clipped == 0 || checked < n*len(cells[0].kept)*cfg.Iterations {
				t.Fatalf("the run exercised too little: %d checks, %d adoptions, %d WGAN iterations", checked, adoptions, clipped)
			}
		})
	}
}
