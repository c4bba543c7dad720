package cluster

import (
	"fmt"
	"sync"

	"cellgan/internal/mpi"
)

// RunJob executes a complete master/slave training job inside one process:
// an inproc MPI world of Cfg.NumTasks() ranks is created, rank 0 runs the
// master and every other rank runs a slave. This is the one-call entry
// point used by the trainer binary and the benchmarks; the cmd/cluster
// binary wires the same two role functions over the TCP transport instead.
// The master's outcome decides the job's: slave errors (a slave left
// behind by a failed master, or killed on purpose by a chaos plan) are
// not reported.
func RunJob(opts MasterOptions) (*JobResult, error) {
	return runJob(opts, nil, nil)
}

// ChaosPlan builds a fault-injection plan scoped to the tolerant
// runtime's chatty streams — state uploads and their acks, and the
// peer-to-peer snapshot pushes — leaving the bootstrap (node names,
// run tasks), the membership protocol (join, release, owner updates) and
// collection reliable. All decisions derive from the seed and per-stream
// message counts, so a given (seed, probabilities) pair injects the same
// faults on every run.
func ChaosPlan(seed uint64, drop, dup, delay float64) mpi.FaultPlan {
	return mpi.FaultPlan{
		Seed:      seed,
		DropProb:  drop,
		DupProb:   dup,
		DelayProb: delay,
		Tags:      []int{tagStateUpdate, tagAsyncState, tagStateAck},
	}
}

// RunJobChaos is RunJob with a deterministic fault plan applied to every
// rank's communicator (see mpi.FaultyComm). Slave failures caused by the
// plan — injected crashes, or the master closing the world after the job —
// are expected and not reported as errors; the master's outcome decides.
func RunJobChaos(opts MasterOptions, plan mpi.FaultPlan) (*JobResult, error) {
	return runJob(opts, &plan, nil)
}

// JoinSpec describes one elastic reserve slave of RunJobWithJoiners.
type JoinSpec struct {
	// Signal, once closed, makes the reserve ask the master to join the
	// running job. A nil Signal never joins (the reserve idles until
	// shutdown).
	Signal <-chan struct{}
}

// RunJobWithJoiners runs an async-mode job with connected reserve slaves
// that join mid-run when their signal fires. The world holds
// Cfg.NumTasks() + len(joins) ranks; opts.Async is forced on and
// opts.JoinSlots is set to len(joins). plan, when non-nil, is applied to
// every rank's communicator as in RunJobChaos.
func RunJobWithJoiners(opts MasterOptions, plan *mpi.FaultPlan, joins []JoinSpec) (*JobResult, error) {
	opts.Async = true
	opts.JoinSlots = len(joins)
	return runJob(opts, plan, joins)
}

// runJob is the one in-process job runner behind RunJob and the chaos and
// elastic entry points.
func runJob(opts MasterOptions, plan *mpi.FaultPlan, joins []JoinSpec) (*JobResult, error) {
	if err := opts.Cfg.Validate(); err != nil {
		return nil, err
	}
	n := opts.Cfg.NumTasks()
	if opts.Async {
		n += opts.JoinSlots
	}
	world, err := mpi.NewWorld(n)
	if err != nil {
		return nil, err
	}
	defer world.Close()

	nWorkers := opts.Cfg.NumTasks()
	var res *JobResult
	var masterErr error
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			comm, err := world.Comm(rank)
			if err != nil {
				if rank == 0 {
					masterErr = err
				}
				return
			}
			if plan != nil {
				comm = mpi.FaultyComm(comm, *plan)
			}
			local, err := SplitLocal(comm)
			if err != nil {
				if rank == 0 {
					masterErr = err
				}
				return
			}
			if rank == 0 {
				res, masterErr = RunMaster(comm, opts)
				// Unblock any zombie slaves still receiving (an evicted
				// slave that missed its shutdown, or a crashed rank).
				world.Close()
				return
			}
			var sopts SlaveOptions
			if i := rank - nWorkers; i >= 0 && i < len(joins) {
				// Reserves beyond the join specs idle until shutdown.
				sopts.JoinSignal = joins[i].Signal
			}
			// Slave errors are tolerated: a chaos run kills slaves on
			// purpose and the world close above ends the stragglers.
			_ = RunSlaveOpts(comm, local, sopts)
		}(rank)
	}
	wg.Wait()
	if masterErr != nil {
		return nil, masterErr
	}
	if res == nil {
		return nil, fmt.Errorf("cluster: job produced no result")
	}
	return res, nil
}
