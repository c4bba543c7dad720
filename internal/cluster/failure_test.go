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
// empty status payload, and final reports naming cells outside the grid. The
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
							payload, _ := stateUpdate{Cells: []cellBlob{{CellRank: tc.cellRank}}}.marshal()
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

// TestPlainMasterCollectsEachSlaveAsItFinishes: the plain heartbeat asks
// a slave for its final report the first time its status reads finished,
// so parsing it overlaps the other slaves' training. Hand-rolled slaves:
// slave 1 reads finished at once, the rest only after a delay; the master
// must request slave 1's report before the last slave reads finished.
func TestPlainMasterCollectsEachSlaveAsItFinishes(t *testing.T) {
	cfg := jobConfig()
	n := cfg.NumTasks()
	w := mpi.MustWorld(n)
	defer w.Close()
	const delay = 300 * time.Millisecond
	var mu sync.Mutex
	finishedAt := make(map[int]time.Time) // first finished status per slave
	collectAt := make(map[int]time.Time)  // first report request per slave
	for rank := 1; rank < n; rank++ {
		go func(rank int, comm *mpi.Comm) {
			start := time.Now()
			comm.Send(0, tagNodeName, []byte("fake")) //nolint:errcheck
			for {
				m, err := comm.Recv(0, mpi.AnyTag)
				if err != nil || m.Tag == tagShutdown {
					return
				}
				mu.Lock()
				now := time.Now()
				switch m.Tag {
				case tagStatus:
					st := StateProcessing
					if rank == 1 || now.Sub(start) >= delay {
						st = StateFinished
						if finishedAt[rank].IsZero() {
							finishedAt[rank] = now
						}
					}
					comm.Send(0, tagStatus, []byte{byte(st)}) //nolint:errcheck
				case tagCollect:
					if collectAt[rank].IsZero() {
						collectAt[rank] = now
					}
					payload, _ := stateUpdate{Cells: []cellBlob{{CellRank: rank - 1, Iteration: cfg.Iterations, Fitness: 1}}}.marshal()
					comm.Send(0, tagResult, payload) //nolint:errcheck
				}
				mu.Unlock()
			}
		}(rank, w.MustComm(rank))
	}
	res, masterErr := RunMaster(w.MustComm(0), MasterOptions{Cfg: cfg, HeartbeatInterval: time.Millisecond})
	mu.Lock()
	defer mu.Unlock()
	var last time.Time
	for rank := 1; rank < n; rank++ {
		if finishedAt[rank].After(last) {
			last = finishedAt[rank]
		}
	}
	if first := collectAt[1]; first.IsZero() || !first.Before(last) {
		t.Fatalf("slave 1's report was requested %v after the last slave read finished, want before it",
			first.Sub(last).Round(time.Millisecond))
	}
	if masterErr != nil {
		t.Fatal(masterErr)
	}
	for c, r := range res.Reports {
		if r.CellRank != c || r.Iterations != cfg.Iterations || r.Error != "" {
			t.Fatalf("report %d: %+v", c, r)
		}
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

// TestFailedJoinerReportsItsCells drives one joiner by hand, as its master:
// it adopts cell 2, then fails to restore cell 3 from a corrupt state. The
// failed execution thread must report the cell it owned, with the error
// and the state it reached, and no other: a joiner's task names no cell
// (CellRank −1), and a report for a cell the thread never owned would
// displace the state the master holds for it.
func TestFailedJoinerReportsItsCells(t *testing.T) {
	cfg := asyncConfig(2, 2, 4)
	joiner := cfg.NumTasks()
	w := mpi.MustWorld(joiner + 1)
	defer w.Close()
	comm, jc := w.MustComm(0), w.MustComm(joiner)
	slaveErr := make(chan error, 1)
	go func() { slaveErr <- RunSlave(jc, jc) }() // a joiner never uses LOCAL
	if _, err := comm.RecvTimeout(joiner, tagNodeName, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	send := func(tag int, msg interface{ marshal() ([]byte, error) }) {
		t.Helper()
		var payload []byte
		var err error
		if msg != nil {
			payload, err = msg.marshal()
		}
		if err == nil {
			err = comm.Send(joiner, tag, payload)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	send(tagRunTask, runTask{Cfg: cfg, CellRank: -1, Async: true, Joiner: true})
	owners := []int{1, 2, joiner, joiner}
	send(tagOwnerUpdate, ownerUpdate{Version: 1, Owners: owners, Adopt: []cellBlob{{CellRank: 2, Fitness: inf()}}})
	send(tagOwnerUpdate, ownerUpdate{Version: 2, Owners: owners, Adopt: []cellBlob{{CellRank: 3, Full: []byte("corrupt"), Fitness: inf()}}})

	var reports []cellBlob
	for deadline := time.Now().Add(30 * time.Second); reports == nil; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the joiner never delivered its reports")
		}
		send(tagCollect, nil)
		m, err := comm.RecvTimeout(joiner, tagResult, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Data) > 0 {
			rep, err := parseStateUpdate(m.Data)
			if err != nil {
				t.Fatal(err)
			}
			reports = append([]cellBlob{}, rep.Cells...)
		}
	}
	send(tagShutdown, nil)
	if err := <-slaveErr; err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].CellRank != 2 {
		t.Fatalf("reports for cells %v, want cell 2 alone", cellsOf(reports))
	}
	if r := reports[0]; !strings.Contains(r.Error, "cell 3") || len(r.Full) == 0 {
		t.Fatalf("cell 2's report carries error %q and %d state bytes, want cell 3's failure and the state", r.Error, len(r.Full))
	}
}

// cellsOf lists the cells a set of reports is for.
func cellsOf(reports []cellBlob) []int {
	var cells []int
	for _, r := range reports {
		cells = append(cells, r.CellRank)
	}
	return cells
}
