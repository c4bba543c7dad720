package cluster

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"cellgan/internal/telemetry"
)

func TestJobInterruptAborts(t *testing.T) {
	cfg := jobConfig()
	cfg.Iterations = 10000 // far more than will run before the interrupt
	interrupt := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(interrupt)
	}()
	res, err := RunJob(MasterOptions{
		Cfg:               cfg,
		HeartbeatInterval: 5 * time.Millisecond,
		Interrupt:         interrupt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("job did not abort on interrupt")
	}
	// The slaves see the master's abort at different boundaries; the halt
	// iteration riding their pushes still stops every cell at one.
	for _, r := range res.Reports {
		if r.Iterations >= cfg.Iterations {
			t.Fatalf("cell %d completed all iterations despite interrupt", r.CellRank)
		}
		if r.Iterations != res.Reports[0].Iterations {
			t.Fatalf("cells stopped at iterations %d and %d", res.Reports[0].Iterations, r.Iterations)
		}
	}
	if !strings.Contains(strings.Join(res.Log, "\n"), "interrupted") {
		t.Fatalf("event log missing the interrupt:\n%s", strings.Join(res.Log, "\n"))
	}
}

func TestJobMetricsRecorded(t *testing.T) {
	cfg := jobConfig()
	reg := telemetry.NewRegistry()
	res, err := RunJob(MasterOptions{
		Cfg:               cfg,
		HeartbeatInterval: time.Millisecond,
		Metrics:           NewMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatal("job aborted unexpectedly")
	}
	var b bytes.Buffer
	reg.WriteText(&b)
	got := b.String()
	for _, want := range []string{
		"cluster_heartbeats_total",
		"cluster_live_slaves 4",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("exposition missing %q:\n%s", want, got)
		}
	}
}

func TestResilientJobMetricsCountRounds(t *testing.T) {
	cfg := jobConfig()
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	res, err := RunJob(MasterOptions{
		Cfg:               cfg,
		HeartbeatInterval: 5 * time.Millisecond,
		Resilient:         true,
		Metrics:           m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatal("job aborted unexpectedly")
	}
	if m.Rounds.Value() == 0 {
		t.Fatal("resilient run recorded no rounds")
	}
	if m.StateUpdates.Value() == 0 {
		t.Fatal("resilient run recorded no state updates")
	}
	if m.Evictions.Value() != 0 {
		t.Fatalf("healthy run recorded %d evictions", m.Evictions.Value())
	}
}
