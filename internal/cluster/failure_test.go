package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cellgan/internal/mpi"
)

// TestMasterDetectsDeadSlave runs a job where one "slave" sends its node
// name and then goes silent; the master must fail with an unresponsive
// error instead of hanging.
func TestMasterDetectsDeadSlave(t *testing.T) {
	cfg := jobConfig()
	n := cfg.NumTasks()
	w := mpi.MustWorld(n)
	defer w.Close()

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs <- func() error {
				comm, err := w.Comm(rank)
				if err != nil {
					return err
				}
				local, err := SplitLocal(comm)
				if err != nil {
					return err
				}
				switch rank {
				case 0:
					_, err := RunMaster(comm, MasterOptions{
						Cfg:               cfg,
						HeartbeatInterval: time.Millisecond,
						HeartbeatTimeout:  100 * time.Millisecond,
					})
					if err == nil {
						return errAssert("master did not detect the dead slave")
					}
					if !strings.Contains(err.Error(), "unresponsive") {
						return errAssert("unexpected master error: " + err.Error())
					}
					// Tear the world down so surviving slaves exit too.
					w.Close()
					return nil
				case 2:
					// The dead slave: announce, then vanish.
					return comm.Send(0, tagNodeName, []byte("zombie"))
				default:
					err := RunSlave(comm, local)
					// Survivors die with ErrClosed when the master tears
					// the world down — that is the expected cleanup path.
					if err == nil || strings.Contains(err.Error(), "closed") {
						return nil
					}
					return err
				}
			}()
		}(rank)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("job with dead slave hung")
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

type errAssert string

func (e errAssert) Error() string { return string(e) }

// TestPlainMasterSurvivesHostileSlave drives the plain master against
// hand-rolled slaves that answer the control protocol with garbage: an
// empty status payload, and reports naming cells outside the grid. The
// master must fail the job with an error (and say why in its log), not
// index its tables with the wire's values.
func TestPlainMasterSurvivesHostileSlave(t *testing.T) {
	cases := []struct {
		name     string
		status   []byte
		cellRank int
		wantErr  string
		wantLog  string
	}{
		{name: "empty status", status: nil, wantErr: "unresponsive"},
		{name: "cell rank beyond grid", status: []byte{byte(StateFinished)}, cellRank: 99,
			wantErr: "no report for cell", wantLog: "ignoring report for cell 99"},
		{name: "negative cell rank", status: []byte{byte(StateFinished)}, cellRank: -7,
			wantErr: "no report for cell", wantLog: "bad report"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := jobConfig()
			n := cfg.NumTasks()
			w := mpi.MustWorld(n)
			defer w.Close()
			for rank := 1; rank < n; rank++ {
				go func(comm *mpi.Comm) {
					comm.Send(0, tagNodeName, []byte("hostile")) //nolint:errcheck
					for {
						m, err := comm.Recv(0, mpi.AnyTag)
						if err != nil || m.Tag == tagShutdown {
							return
						}
						switch m.Tag {
						case tagStatus:
							comm.Send(0, tagStatus, tc.status) //nolint:errcheck
						case tagCollect:
							payload, _ := slaveReports{Reports: []SlaveReport{{CellRank: tc.cellRank}}}.marshal()
							comm.Send(0, tagResult, payload) //nolint:errcheck
						}
					}
				}(w.MustComm(rank))
			}
			var log []string
			_, err := RunMaster(w.MustComm(0), MasterOptions{
				Cfg: cfg, HeartbeatInterval: time.Millisecond,
				Logf: func(format string, args ...interface{}) { log = append(log, fmt.Sprintf(format, args...)) },
			})
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("master returned %v, want an error containing %q", err, tc.wantErr)
			}
			if !strings.Contains(strings.Join(log, "\n"), tc.wantLog) {
				t.Fatalf("log missing %q:\n%s", tc.wantLog, strings.Join(log, "\n"))
			}
		})
	}
}

// TestHardenedGiveUpInsideEvictionWindow: a hardened TCP send gives up on
// a dead or stalled peer — one timeout plus the reconnect backoffs — fast
// enough that a slave whose push finds two neighbours newly dead still
// uploads before the master's default eviction.
func TestHardenedGiveUpInsideEvictionWindow(t *testing.T) {
	o := mpi.HardenedTCPOptions()
	giveUp := max(o.WriteTimeout, o.DialTimeout)
	for i, b := 0, o.ReconnectBackoff; i < o.ReconnectAttempts; i, b = i+1, min(2*b, 32*o.ReconnectBackoff) {
		giveUp += b
	}
	if window := defaultMaxStrikes * defaultRoundTimeout; 2*giveUp >= window {
		t.Fatalf("hardened give-up %v: two of them reach the %v eviction window", giveUp, window)
	}
}
