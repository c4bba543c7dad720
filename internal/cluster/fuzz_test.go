package cluster

import (
	"testing"

	"cellgan/internal/telemetry"
)

// seedProfile is a slave's routine totals as a report carries them.
var seedProfile = map[string]telemetry.RoutineStat{
	telemetry.RoutineTrain.String():  {Count: 12, Total: 3e9},
	telemetry.RoutineGather.String(): {Count: 13, Total: 4e6},
}

// seedOwnerUpdateBytes builds a representative valid owner update for the
// fuzz corpus: a four-cell map with a failed cell, an adoption order and a
// seed state, round-tripped through marshal.
func seedOwnerUpdateBytes(f *testing.F) []byte {
	f.Helper()
	u := ownerUpdate{
		Version: 3,
		Owners:  []int{1, 2, 5, 5},
		Failed:  []int{1},
		Adopt: []cellBlob{
			{CellRank: 2, Iteration: 4, Full: []byte{1, 2, 3}, Fitness: 0.5},
		},
		States: []wireState{{Rank: 3, Iter: 4, Data: []byte{9, 8}}},
		Done:   false,
	}
	payload, err := u.marshal()
	if err != nil {
		f.Fatal(err)
	}
	return payload
}

// FuzzParseOwnerUpdate asserts the membership decoder never panics and
// never hands the slave loop a structurally invalid update: every accepted
// message satisfies the invariants the slave's runAsync relies on without
// re-checking (bounded owner map, in-range cell lists, duplicate-free
// adoption orders) and re-encodes cleanly.
func FuzzParseOwnerUpdate(f *testing.F) {
	seed := seedOwnerUpdateBytes(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // truncated mid-object
	f.Add([]byte{})
	f.Add([]byte(`{}`))                          // no owner map
	f.Add([]byte(`{"version":-1,"owners":[1]}`)) // negative version
	f.Add([]byte(`{"version":0,"owners":[1,2],"failed":[2]}`))
	f.Add([]byte(`{"version":0,"owners":[1,2],"adopt":[{"cell":0},{"cell":0}]}`))
	f.Add([]byte(`{"version":0,"owners":[-3]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := parseOwnerUpdate(data)
		if err != nil {
			return
		}
		n := len(u.Owners)
		if u.Version < 0 || n == 0 || n > maxProtocolCells {
			t.Fatalf("accepted update breaks bounds: version %d, %d owners", u.Version, n)
		}
		if len(u.Failed) > n || len(u.Adopt) > n || len(u.States) > n {
			t.Fatalf("accepted update lists exceed %d cells", n)
		}
		for _, o := range u.Owners {
			if o < 0 {
				t.Fatalf("accepted update has negative owner %d", o)
			}
		}
		for _, c := range u.Failed {
			if c < 0 || c >= n {
				t.Fatalf("accepted update fails cell %d of %d", c, n)
			}
		}
		seen := make(map[int]bool, len(u.Adopt))
		for _, ad := range u.Adopt {
			if ad.CellRank < 0 || ad.CellRank >= n || ad.Iteration < 0 || seen[ad.CellRank] {
				t.Fatalf("accepted update has bad adopt order %+v", ad)
			}
			seen[ad.CellRank] = true
		}
		for _, ws := range u.States {
			if ws.Rank < 0 || ws.Rank >= n {
				t.Fatalf("accepted update seeds cell %d of %d", ws.Rank, n)
			}
		}
		if _, err := u.marshal(); err != nil {
			t.Fatalf("accepted update does not re-encode: %v", err)
		}
	})
}

// FuzzParseReleaseOrder does the same for the recall half of the join
// protocol: accepted orders are bounded, in-range and duplicate-free.
func FuzzParseReleaseOrder(f *testing.F) {
	seed, err := releaseOrder{Version: 2, Cells: []int{0, 3, 1}}.marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	f.Add([]byte(`{}`))                          // no cells
	f.Add([]byte(`{"version":-2,"cells":[0]}`))  // negative version
	f.Add([]byte(`{"version":0,"cells":[0,0]}`)) // duplicate
	f.Add([]byte(`{"version":0,"cells":[-1]}`))
	f.Add([]byte(`{"version":0,"cells":[999999]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := parseReleaseOrder(data)
		if err != nil {
			return
		}
		if r.Version < 0 || len(r.Cells) == 0 || len(r.Cells) > maxProtocolCells {
			t.Fatalf("accepted order breaks bounds: version %d, %d cells", r.Version, len(r.Cells))
		}
		seen := make(map[int]bool, len(r.Cells))
		for _, c := range r.Cells {
			if c < 0 || c >= maxProtocolCells || seen[c] {
				t.Fatalf("accepted order releases bad cell %d", c)
			}
			seen[c] = true
		}
		if _, err := r.marshal(); err != nil {
			t.Fatalf("accepted order does not re-encode: %v", err)
		}
	})
}

// requireCellBounds is the post-condition of every parser below: an
// accepted message never carries more than maxProtocolCells cells or a
// rank outside [0, maxProtocolCells).
func requireCellBounds(t *testing.T, what string, ranks ...int) {
	t.Helper()
	if len(ranks) > maxProtocolCells {
		t.Fatalf("accepted %s lists %d cells", what, len(ranks))
	}
	for _, c := range ranks {
		if c < 0 || c >= maxProtocolCells {
			t.Fatalf("accepted %s names cell %d", what, c)
		}
	}
}

func blobRanks(t *testing.T, what string, blobs []cellBlob) []int {
	t.Helper()
	ranks := make([]int, len(blobs))
	for i, b := range blobs {
		if b.Iteration < 0 {
			t.Fatalf("accepted %s has cell %d at iteration %d", what, b.CellRank, b.Iteration)
		}
		ranks[i] = b.CellRank
	}
	return ranks
}

// addSeeds registers a valid payload, its truncation, and the usual
// degenerate JSON documents.
func addSeeds(f *testing.F, valid []byte, err error, extra ...string) {
	f.Helper()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	for _, s := range append(extra, ``, `{}`, `[]`, `null`) {
		f.Add([]byte(s))
	}
}

func FuzzParseRunTask(f *testing.F) {
	valid, err := runTask{Cfg: jobConfig(), CellRank: 2, Full: []byte{1}}.marshal()
	addSeeds(f, valid, err, `{"cell_rank":-1}`, `{"cell_rank":-1,"joiner":true}`)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := parseRunTask(data)
		if err != nil {
			return
		}
		if r.Cfg.Validate() != nil {
			t.Fatal("accepted run task with an invalid config")
		}
		if r.CellRank == -1 && r.Joiner {
			return
		}
		if r.CellRank < 0 || r.CellRank >= r.Cfg.NumCells() {
			t.Fatalf("accepted run task for cell %d of %d", r.CellRank, r.Cfg.NumCells())
		}
	})
}

// FuzzParseStateUpdate covers the stateUpdate of an upload or a release
// ack.
func FuzzParseStateUpdate(f *testing.F) {
	valid, err := stateUpdate{Round: 5, Cells: []cellBlob{{CellRank: 1, Iteration: 5, Full: []byte{1, 2}}}}.marshal()
	addSeeds(f, valid, err, `{"cells":[{"cell_rank":-1}]}`, `{"cells":[{"cell_rank":0,"iteration":-2}]}`)
	f.Fuzz(func(t *testing.T, data []byte) {
		if u, err := parseStateUpdate(data); err == nil {
			requireCellBounds(t, "state update", blobRanks(t, "state update", u.Cells)...)
		}
	})
}

// FuzzParseSlaveReports covers a slave's final report: the stateUpdate it
// answers a collect with, whose cells collectFrom merges and whose profile
// it sums.
func FuzzParseSlaveReports(f *testing.F) {
	valid, err := stateUpdate{Cells: []cellBlob{{CellRank: 0, Iteration: 4}, {CellRank: 3, Failed: true, Error: "x"}},
		Profile: seedProfile}.marshal()
	addSeeds(f, valid, err, `{"cells":[{"cell_rank":-1}]}`, `{"cells":[{"cell_rank":4096}]}`,
		`{"cells":[],"profile":{"train":{"count":7,"total_ns":9}}}`) // a slave a join emptied
	// A plain slave's one-cell report (addSeeds already holds the empty
	// payload of a slave still finalising).
	plain, err := stateUpdate{Cells: []cellBlob{{CellRank: 3, Iteration: 2, Full: []byte{7}, Fitness: 0.25,
		MixtureRanks: []int{3, 1}, MixtureWeights: []float64{0.6, 0.4}}}, Profile: seedProfile}.marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(plain)
	f.Add([]byte(`{"cells":[],"profile":{"train":{"count":-1,"total_ns":"x"}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := parseStateUpdate(data)
		if err != nil {
			return
		}
		requireCellBounds(t, "slave reports", blobRanks(t, "slave reports", rep.Cells)...)
		new(telemetry.Profile).Merge(rep.Profile) // what collectFrom does with it
	})
}

func FuzzParseStateAck(f *testing.F) {
	valid, err := stateAck{Held: []cellIter{{Cell: 0, Iter: 3}, {Cell: 4, Iter: 2}}}.marshal()
	addSeeds(f, valid, err, `{"held":[{"cell":-1,"iter":0}]}`, `{"held":[{"cell":2,"iter":-5}]}`)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := parseStateAck(data)
		if err != nil {
			return
		}
		ranks := make([]int, len(a.Held))
		for i, h := range a.Held {
			if h.Iter < 0 {
				t.Fatalf("accepted ack for cell %d at iteration %d", h.Cell, h.Iter)
			}
			ranks[i] = h.Cell
		}
		requireCellBounds(t, "state ack", ranks...)
	})
}
