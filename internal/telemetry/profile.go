package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
	"time"

	"cellgan/internal/report"
)

// Routine is one row of the paper's Table IV profile.
type Routine int

// The four Table IV routines, in the paper's row order.
const (
	RoutineTrain Routine = iota
	RoutineUpdateGenomes
	RoutineMutate
	RoutineGather
	numRoutines
)

var routineNames = [numRoutines]string{"train", "update genomes", "mutate", "gather"}

// String returns the routine's Table IV name, its key in a snapshot.
func (r Routine) String() string { return routineNames[r] }

// RoutineStat is the accumulated timing of one routine.
type RoutineStat struct {
	Count int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
}

// Mean returns the average duration per call (0 when never called).
func (s RoutineStat) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// Profile accumulates a call count and a wall-clock total per Table IV
// routine. Recording is two atomic adds — no lock, no allocation — so one
// Profile may be shared by every cell of a process. The zero value is
// ready to use; a nil *Profile records nothing and reads as zero.
type Profile struct {
	calls, nanos [numRoutines]atomic.Int64
}

// Since records one call of r that began at t0. Deferred as
// defer p.Since(RoutineTrain, time.Now()) it times the enclosing function
// without the closure a start/stop pair would allocate.
func (p *Profile) Since(r Routine, t0 time.Time) { p.add(r, 1, time.Since(t0)) }

func (p *Profile) add(r Routine, n int64, d time.Duration) {
	if p == nil {
		return
	}
	p.calls[r].Add(n)
	p.nanos[r].Add(int64(d))
}

// Get returns the accumulated stat of r.
func (p *Profile) Get(r Routine) RoutineStat {
	if p == nil {
		return RoutineStat{}
	}
	return RoutineStat{Count: p.calls[r].Load(), Total: time.Duration(p.nanos[r].Load())}
}

// Snapshot returns the routines called at least once, keyed by name.
func (p *Profile) Snapshot() map[string]RoutineStat {
	out := make(map[string]RoutineStat, numRoutines)
	for r := range numRoutines {
		if s := p.Get(r); s.Count > 0 {
			out[r.String()] = s
		}
	}
	return out
}

// Merge adds a snapshot taken elsewhere (one slave's totals) into p.
// Names that are not Table IV routines are ignored.
func (p *Profile) Merge(snap map[string]RoutineStat) {
	for r := range numRoutines {
		if s, ok := snap[r.String()]; ok {
			p.add(r, s.Count, s.Total)
		}
	}
}

// Register exposes p on reg at scrape time, one series per routine:
//
//	<prefix>_profile_seconds_total{routine="train"} 1.52
//	<prefix>_profile_calls_total{routine="train"} 200
func (p *Profile) Register(reg *Registry, prefix string) {
	secName, callName := prefix+"_profile_seconds_total", prefix+"_profile_calls_total"
	reg.AddCollector(func(w io.Writer) {
		fmt.Fprintf(w, "# HELP %s Accumulated wall-clock seconds per training routine.\n", secName)
		for r := range numRoutines {
			writeSeries(w, secName, fmt.Sprintf("routine=%q", r.String()), fmtFloat(p.Get(r).Total.Seconds()))
		}
		fmt.Fprintf(w, "# HELP %s Recorded invocations per training routine.\n", callName)
		for r := range numRoutines {
			writeSeries(w, callName, fmt.Sprintf("routine=%q", r.String()), strconv.FormatInt(p.Get(r).Count, 10))
		}
	})
}

// Report renders the called routines as the end-of-run text table.
func (p *Profile) Report() string {
	t := report.NewTable("", "routine", "calls", "total", "mean")
	for r := range numRoutines {
		if s := p.Get(r); s.Count > 0 {
			t.AddRow(r.String(), strconv.FormatInt(s.Count, 10), s.Total.String(), s.Mean().String())
		}
	}
	return t.String()
}
