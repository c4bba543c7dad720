package cluster

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"cellgan/internal/config"
	"cellgan/internal/telemetry"
)

// TestJobInterruptAborts: in every mode the slaves see the master's abort
// at different boundaries, and the halt iteration riding their pushes
// still stops every cell at one.
func TestJobInterruptAborts(t *testing.T) {
	jobModes(t, func(o *MasterOptions) {
		o.Cfg.Iterations = 10000 // far more than will run before the interrupt
		interrupt := make(chan struct{})
		time.AfterFunc(50*time.Millisecond, func() { close(interrupt) })
		o.Interrupt = interrupt
	}, func(t *testing.T, cfg config.Config, res *JobResult) {
		requireOneHalt(t, cfg, res)
		if !strings.Contains(strings.Join(res.Log, "\n"), "interrupted") {
			t.Fatalf("event log missing the interrupt:\n%s", strings.Join(res.Log, "\n"))
		}
	})
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

// TestResilientJobMetricsCountUploads: the evict policy's uploads are
// counted, and a healthy run evicts nobody.
func TestResilientJobMetricsCountUploads(t *testing.T) {
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
	if m.StateUpdates.Value() == 0 {
		t.Fatal("resilient run recorded no state updates")
	}
	if m.Evictions.Value() != 0 {
		t.Fatalf("healthy run recorded %d evictions", m.Evictions.Value())
	}
}
