package core

import (
	"runtime"
	"testing"

	"cellgan/internal/config"
	"cellgan/internal/mpi"
)

// exchangeShape is the benchmark's exchange-heavy configuration: a 3×3
// grid of paper MLPs at the given hidden width.
func exchangeShape(hidden int) config.Config {
	cfg := config.Default().WithGrid(3, 3)
	cfg.NeuronsPerHidden = hidden
	cfg.BatchSize, cfg.BatchesPerIteration, cfg.DatasetSize = 8, 1, 200
	return cfg
}

// exchangeBytesPerRound returns the heap bytes one warm receive-and-send
// costs a cell at the given width: its state encoded into a reused buffer
// and a full neighbourhood of snapshots installed.
func exchangeBytesPerRound(t *testing.T, hidden int) uint64 {
	t.Helper()
	cfg := exchangeShape(hidden)
	states := map[int]*CellState{}
	var cell *Cell
	for rank := 0; rank < cfg.NumCells(); rank++ {
		c, _ := newTestCell(t, cfg, rank)
		s, err := c.State()
		if err != nil {
			t.Fatal(err)
		}
		states[rank] = s
		if rank == 4 {
			cell = c
		}
	}
	round := func(wire []byte) []byte {
		wire = cell.AppendState(wire[:0])
		if err := cell.SetNeighbors(states); err != nil {
			t.Fatal(err)
		}
		return wire
	}
	wire := round(nil) // first sight: the kept networks and the buffer are built here
	const rounds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		wire = round(wire)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / rounds
}

// TestExchangeAllocsIndependentOfGenomeSize: once every neighbour has been
// seen, an exchange decodes into the kept networks and encodes into the
// caller's buffer, so what it still allocates (maps, rank lists) must not
// depend on how large the genomes are. At width 128 one state is 1.9 MB
// and the round used to allocate some fifteen times that.
func TestExchangeAllocsIndependentOfGenomeSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	narrow, wide := exchangeBytesPerRound(t, 32), exchangeBytesPerRound(t, 128)
	t.Logf("bytes per warm exchange: %d at width 32, %d at width 128", narrow, wide)
	const slack = 512 // size-class rounding of the small bookkeeping objects
	if wide > narrow+slack {
		t.Errorf("a warm exchange allocates %d B at width 128 but %d B at width 32: it grows with the genome", wide, narrow)
	}
	if wide > 16<<10 {
		t.Errorf("a warm exchange allocates %d B, want bookkeeping only (< 16 KiB)", wide)
	}
}

// exchangeRounds builds the nine drivers of the 3×3 grid at the given
// width over an in-process world and returns one lockstep exchange round
// of all of them — push, drain, decode — and the state bytes a round
// delivers. Their target is 0, so a driver pushes and settles but never
// trains, and between rounds every cell steps its iteration count: each
// round waits for, installs and releases every neighbour's push of its
// iteration, as a training run's rounds do.
func exchangeRounds(tb testing.TB, hidden int) (round func(), delivered int) {
	tb.Helper()
	cfg := exchangeShape(hidden)
	r, err := newRun(cfg, RunOptions{}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	n := r.grid.Size()
	world := mpi.MustWorld(n)
	tb.Cleanup(world.Close)
	drivers := make([]*Driver, n)
	for rank := range drivers {
		cell, err := r.newCell(rank)
		if err != nil {
			tb.Fatal(err)
		}
		d := &Driver{Comm: world.MustComm(rank), Tag: stateTag, Window: 1}
		delivered += len(d.Own(cell).x.nbrs) * len(cell.AppendState(nil))
		drivers[rank] = d
	}
	return func() {
		if err := eachRank(n, func(rank int) error { return drivers[rank].Run() }); err != nil {
			tb.Fatal(err)
		}
		for _, d := range drivers {
			d.owned[0].Cell.iteration++
		}
	}, delivered
}

// roundAllocBytes returns the heap bytes one warm round of exchangeRounds
// allocates, over all nine ranks.
func roundAllocBytes(t *testing.T, hidden int) uint64 {
	t.Helper()
	round, _ := exchangeRounds(t, hidden)
	round() // first sight builds the kept networks
	round() // and the second the push buffers the first one still had out
	const rounds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / rounds
}

// TestDriverRoundAllocs: a warm round encodes every push into a buffer
// its receivers have released, so what the nine ranks still allocate
// (snapshot headers, delivery records, goroutines) must not grow with the
// genomes. A fresh 1.94 MB push per rank per round at width 128 made it
// some 17.5 MB.
func TestDriverRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	narrow, wide := roundAllocBytes(t, 32), roundAllocBytes(t, 128)
	t.Logf("bytes per warm round of nine ranks: %d at width 32, %d at width 128", narrow, wide)
	const slack = 2 << 10 // size-class rounding and map growth of the bookkeeping
	if wide > narrow+slack {
		t.Errorf("a warm round allocates %d B at width 128 but %d B at width 32: it grows with the genome", wide, narrow)
	}
	if wide > 64<<10 {
		t.Errorf("a warm round allocates %d B, want bookkeeping only (< 64 KiB)", wide)
	}
}

// BenchmarkExchangeRound times one exchange round of the drivers of all
// nine ranks of the 3×3, 128-wide grid over the in-process transport;
// MB/s counts the state bytes a round delivers.
func BenchmarkExchangeRound(b *testing.B) {
	round, delivered := exchangeRounds(b, 128)
	round() // first sight builds the kept networks
	b.SetBytes(int64(delivered))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// TestDriverReleasesSharedPushAfterLastReader: a push that reaches two
// owned cells is decoded once and read by both, so its delivery is
// released only once both have let go of it. On a 2×2 grid at W = 2, one
// driver owns cells 0 and 3, which both neighbour cell 1, whose driver
// pushes its center of iteration 1 and then of iteration 3. Cell 0, at
// iteration 2, installs the second push and lets go of the first; cell 3,
// at iteration 0, must hold the second and keep viewing the first, which a
// release at the first reader would have poisoned (mpi.PoisonRecycled).
func TestDriverReleasesSharedPushAfterLastReader(t *testing.T) {
	mpi.PoisonRecycled(true)
	defer mpi.PoisonRecycled(false)
	cfg := tinyConfig()
	world := mpi.MustWorld(2)
	defer world.Close()
	owners := []int{1, 0, 0, 1}
	sender := &Driver{Comm: world.MustComm(0), Tag: stateTag, Window: 2, Owners: owners}
	receiver := &Driver{Comm: world.MustComm(1), Tag: stateTag, Window: 2, Owners: owners}
	src, _ := newTestCell(t, cfg, 1)
	sender.Own(src)
	a, _ := newTestCell(t, cfg, 0)
	b, _ := newTestCell(t, cfg, 3)
	receiver.Own(a)
	receiver.Own(b)
	pass := func(d *Driver) {
		t.Helper()
		if _, _, err := d.Pass(); err != nil {
			t.Fatal(err)
		}
	}
	installed := func(c *Cell) int { return receiver.Lookup(c.Rank).x.installed[1].s.Iteration }

	src.iteration, a.iteration = 1, 2
	pass(sender)
	pass(receiver)
	want := paramsHash(b.kept[1].gen.Net, b.kept[1].disc.Net)
	src.iteration = 3
	pass(sender)
	pass(receiver)
	if installed(a) != 3 || installed(b) != 1 {
		t.Fatalf("cells 0 and 3 installed cell 1's pushes of iterations %d and %d, want 3 and 1", installed(a), installed(b))
	}
	if got := paramsHash(b.kept[1].gen.Net, b.kept[1].disc.Net); got != want {
		t.Fatal("cell 3's view of a push it still reads was released when cell 0 let go of it")
	}
}
