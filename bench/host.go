package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// hostInfo stamps a result with where and on what it was measured.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Kernel     string  `json:"kernel"`
	Loadavg1m  float64 `json:"loadavg_1m"`
	// Noisy marks a run that started on a host busier than half its
	// processors; it is still reported.
	Noisy bool `json:"noisy"`
}

func captureHost() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     headCommit("."),
		Kernel:     firstField("/proc/sys/kernel/osrelease"),
	}
	h.Loadavg1m, _ = strconv.ParseFloat(firstField("/proc/loadavg"), 64)
	h.Noisy = h.Loadavg1m > 0.5*float64(h.NProc)
	return h
}

func firstField(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	if f := strings.Fields(string(data)); len(f) > 0 {
		return f[0]
	}
	return "unknown"
}

// headCommit resolves HEAD of the repository at root by reading .git
// directly: the driver's checkout is not a repository, and asking git would
// search the parent directories.
func headCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if data, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
		return strings.TrimSpace(string(data))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == name {
			return f[0]
		}
	}
	return "unknown"
}

// peakRSSMB reads VmHWM, the high-water mark of this process's resident set.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// procSample is a point reading of the process's cumulative costs.
type procSample struct {
	at         time.Time
	cpu        time.Duration
	allocBytes uint64
	gcPause    time.Duration
}

func sampleProc() procSample {
	var ru syscall.Rusage
	var cpu time.Duration
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{at: time.Now(), cpu: cpu, allocBytes: ms.TotalAlloc, gcPause: time.Duration(ms.PauseTotalNs)}
}

// procDelta is what a section cost the process.
type procDelta struct {
	wallS, cpuS, cpuUtil, allocMBPerOp, gcPauseMs float64
}

func (a procSample) until(b procSample, ops int) procDelta {
	d := procDelta{
		wallS:     b.at.Sub(a.at).Seconds(),
		cpuS:      (b.cpu - a.cpu).Seconds(),
		gcPauseMs: float64(b.gcPause-a.gcPause) / 1e6,
	}
	if d.wallS > 0 {
		d.cpuUtil = d.cpuS / (d.wallS * float64(runtime.NumCPU()))
	}
	if ops > 0 {
		d.allocMBPerOp = float64(b.allocBytes-a.allocBytes) / (1 << 20) / float64(ops)
	}
	return d
}

// hostClock samples what the shared host does to this machine while a
// section runs, from two sources nothing inside the program moves:
//
//   - the steal column of /proc/stat, processor time the hypervisor gave to
//     someone else;
//   - the processor time a fixed piece of the harness's own arithmetic costs
//     (probe below), which rises when whoever shares the physical core keeps
//     its execution units busy. That shows in no counter of the guest.
//
// On the reference VM both swing within minutes, the first between 0 and 0.7
// and the second between 0.7 and 3 times its usual reading, and every timing
// swings with them (README, "Calibration").
type hostClock struct {
	origin time.Time
	sens   sensitivity // of the workload whose timings this clock scales
	stop   chan struct{}
	done   chan struct{}
	at     []int64   // ns since origin
	steal  []float64 // cumulative stolen processor-seconds, all processors
	probe  []float64 // cumulative probe cost, ms of the sampling thread's processor time
	sink   float64   // what the probes computed, kept so that they are not optimised away
}

// hostPeriod is the sampling period; the steal counter ticks at 100 Hz.
const hostPeriod = 50 * time.Millisecond

func stolenSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100 // USER_HZ
}

// threadCPU is the processor time the calling thread has used. Time during
// which the hypervisor runs someone else is not in it.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

var probeData [512]float64 // 4 KB: stays in the first-level cache

// probe does a fixed amount of arithmetic — eight independent multiply-add
// chains over a small array, which keeps the floating-point units and the
// load ports as busy as one thread can — and returns the processor time it
// took, in ms. The work touches no memory beyond 4 KB and calls nothing of
// the repo, so only the host moves the reading: on the reference VM about
// 0.27 ms when the other hardware thread of the core idles, 0.4 ms as a
// rule, 1.3 ms while a co-tenant saturates the core. The second result is
// what it computed.
func probe() (ms, sum float64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var a0, a1, a2, a3, a4, a5, a6, a7 float64
	began := threadCPU()
	for r := 0; r < 1500; r++ {
		for i := 0; i < len(probeData); i += 8 {
			a0 += probeData[i] * 1.0001
			a1 += probeData[i+1] * 1.0002
			a2 += probeData[i+2] * 1.0003
			a3 += probeData[i+3] * 1.0004
			a4 += probeData[i+4] * 1.0005
			a5 += probeData[i+5] * 1.0006
			a6 += probeData[i+6] * 1.0007
			a7 += probeData[i+7] * 1.0008
		}
	}
	took := threadCPU() - began
	return float64(took) / 1e6, a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
}

func startHostClock(origin time.Time, sens sensitivity) *hostClock {
	c := &hostClock{origin: origin, sens: sens, stop: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		t := time.NewTicker(hostPeriod)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *hostClock) sample() {
	cost, sum := probe()
	c.sink += sum
	if n := len(c.probe); n > 0 {
		cost += c.probe[n-1]
	}
	c.at = append(c.at, time.Since(c.origin).Nanoseconds())
	c.steal = append(c.steal, stolenSeconds())
	c.probe = append(c.probe, cost)
}

// end stops sampling after one last sample; the clock is read-only after.
func (c *hostClock) end() {
	close(c.stop)
	<-c.done
	c.sample()
}

// window returns the indices of the samples nearest around two instants (ns
// since origin); ok is false when they span no time.
func (c *hostClock) window(fromNs, toNs int64) (lo, hi int, ok bool) {
	if c == nil || toNs <= fromNs {
		return 0, 0, false
	}
	lo = sort.Search(len(c.at), func(i int) bool { return c.at[i] > fromNs })
	if lo > 0 {
		lo--
	}
	hi = sort.Search(len(c.at), func(i int) bool { return c.at[i] >= toNs })
	if hi >= len(c.at) {
		hi = len(c.at) - 1
	}
	return lo, hi, hi > lo
}

// share returns the part of the machine's processor time stolen between two
// instants (ns since origin).
func (c *hostClock) share(fromNs, toNs int64) float64 {
	lo, hi, ok := c.window(fromNs, toNs)
	if !ok {
		return 0
	}
	wall := float64(c.at[hi]-c.at[lo]) / 1e9
	s := (c.steal[hi] - c.steal[lo]) / (wall * float64(runtime.NumCPU()))
	if s < 0 {
		s = 0
	}
	if s > 0.95 {
		s = 0.95
	}
	return s
}

// probeMs returns the mean cost of the probes made between two instants, 0
// when there was none.
func (c *hostClock) probeMs(fromNs, toNs int64) float64 {
	lo, hi, ok := c.window(fromNs, toNs)
	if !ok || len(c.probe) != len(c.at) {
		return 0
	}
	return (c.probe[hi] - c.probe[lo]) / float64(hi-lo)
}

// scale is the factor that puts the median of the operations timed in the
// interval on the host clock, scaleTotal the one for their mean or for the
// interval as a whole; 1 without a clock.
func (c *hostClock) scale(fromNs, toNs int64) float64 {
	if c == nil {
		return 1
	}
	return c.sens.scale(c.share(fromNs, toNs), c.probeMs(fromNs, toNs))
}

func (c *hostClock) scaleTotal(fromNs, toNs int64) float64 {
	if c == nil {
		return 1
	}
	return c.sens.scaleTotal(c.share(fromNs, toNs), c.probeMs(fromNs, toNs))
}

// sinceOrigin is now, in the clock's own ns.
func (c *hostClock) sinceOrigin() int64 { return time.Since(c.origin).Nanoseconds() }
