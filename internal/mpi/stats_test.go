package mpi

import (
	"sync"
	"testing"
)

func TestInstrumentCommCountsTraffic(t *testing.T) {
	w := MustWorld(2)
	defer w.Close()
	var st0, st1 CommStats
	c0 := InstrumentComm(mustComm(t, w, 0), &st0)
	c1 := InstrumentComm(mustComm(t, w, 1), &st1)

	payload := []byte("hello")
	done := make(chan error, 1)
	go func() {
		_, err := c1.Recv(0, 7)
		done <- err
	}()
	if err := c0.Send(1, 7, payload); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := st0.SentMessages.Load(); got != 1 {
		t.Fatalf("sender counted %d messages, want 1", got)
	}
	if got := st0.SentBytes.Load(); got != uint64(len(payload)) {
		t.Fatalf("sender counted %d bytes, want %d", got, len(payload))
	}
	if got := st1.RecvMessages.Load(); got != 1 {
		t.Fatalf("receiver counted %d messages, want 1", got)
	}
	if got := st1.RecvBytes.Load(); got != uint64(len(payload)) {
		t.Fatalf("receiver counted %d bytes, want %d", got, len(payload))
	}
}

func TestInstrumentCommNilStatsIsIdentity(t *testing.T) {
	w := MustWorld(1)
	defer w.Close()
	c := mustComm(t, w, 0)
	if InstrumentComm(c, nil) != c {
		t.Fatal("nil stats must return the communicator unchanged")
	}
}

func TestInstrumentCommCollectives(t *testing.T) {
	// Collective traffic flows through the endpoint, so an allgather is
	// counted too — and TryRecv passes through the middleware.
	const n = 3
	w := MustWorld(n)
	defer w.Close()
	stats := make([]CommStats, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := InstrumentComm(mustComm(t, w, r), &stats[r])
			if _, err := c.Allgather([]byte{byte(r)}); err != nil {
				errs <- err
				return
			}
			if _, _, err := c.TryRecv(AnySource, 5); err != nil {
				errs <- err
				return
			}
			errs <- nil
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for r := range stats {
		if stats[r].SentMessages.Load() == 0 && stats[r].RecvMessages.Load() == 0 {
			t.Fatalf("rank %d counted no collective traffic", r)
		}
	}
}

func TestFaultStatsCounting(t *testing.T) {
	w := MustWorld(2)
	defer w.Close()
	var fs FaultStats
	plan := FaultPlan{Seed: 7, DropProb: 1, Stats: &fs}
	c0 := FaultyComm(mustComm(t, w, 0), plan)
	for i := 0; i < 5; i++ {
		if err := c0.Send(1, 3, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.Drops.Load(); got != 5 {
		t.Fatalf("counted %d drops, want 5", got)
	}
}

func mustComm(t *testing.T, w *World, rank int) *Comm {
	t.Helper()
	c, err := w.Comm(rank)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
