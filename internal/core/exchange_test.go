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

// BenchmarkExchangeRound times one exchange round of the rank loop — push,
// drain, decode — of all nine ranks of the 3×3, 128-wide grid over the
// in-process transport; MB/s counts the state bytes a round delivers.
func BenchmarkExchangeRound(b *testing.B) {
	cfg := exchangeShape(128)
	r, err := newRun(cfg, RunOptions{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	n := r.grid.Size()
	world := mpi.MustWorld(n)
	defer world.Close()
	loops := make([]*RankLoop, n)
	received := 0
	for rank := range loops {
		cell, err := r.newCell(rank)
		if err != nil {
			b.Fatal(err)
		}
		l := &RankLoop{Comm: world.MustComm(rank), Cell: cell}
		l.init()
		loops[rank] = l
		received += len(l.x.nbrs) * len(cell.AppendState(nil))
	}
	round := func() {
		if err := eachRank(n, func(rank int) error { return loops[rank].exchange() }); err != nil {
			b.Fatal(err)
		}
	}
	round() // first sight builds the kept networks
	b.SetBytes(int64(received))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
