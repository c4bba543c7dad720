package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Verdicts of -compare, per (metric, workload).
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// side is one result set's runs of one metric on one workload.
type side struct {
	vals       []float64
	q1, q2, q3 float64
}

func newSide(vals []float64) side {
	s := side{vals: vals}
	s.q1, s.q2, s.q3 = quartiles(vals)
	return s
}

// spread is the distance between the quartiles as a share of the median, or
// as it stands for a metric with an absolute bound.
func (s side) spread(def metricDef) float64 {
	if def.Absolute || s.q2 == 0 {
		return s.q3 - s.q1
	}
	return (s.q3 - s.q1) / math.Abs(s.q2)
}

// judge applies the rule of the choosing-metrics guide, section 8, to the
// runs a (parent) and b (change) of one metric on one workload:
//
//   - unresolved when either side's own spread is wider than the bound;
//   - regressed when b's median is worse than a's by more than the bound;
//   - improved when b's median is better by more than the distance between
//     a's quartiles and b wins at least nine tenths of the pairs (run i of a
//     against run i of b), ties counting for neither;
//   - unchanged otherwise.
func judge(def metricDef, a, b side) string {
	sign := 1.0 // positive delta = worse
	if def.Better == "higher" {
		sign = -1
	}
	worse := sign * (b.q2 - a.q2)
	if !def.Absolute && a.q2 != 0 {
		worse /= math.Abs(a.q2)
	}
	// A single run per side has no spread to judge; the bound alone decides.
	if len(a.vals) > 1 && len(b.vals) > 1 && (a.spread(def) > def.Bound || b.spread(def) > def.Bound) && def.Bound > 0 {
		return unresolved
	}
	if worse > def.Bound {
		return regressed
	}
	pairs := len(a.vals)
	if len(b.vals) < pairs {
		pairs = len(b.vals)
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if sign*(b.vals[i]-a.vals[i]) < 0 {
			wins++
		}
	}
	if sign*(b.q2-a.q2) < -(a.q3-a.q1) && pairs > 0 && float64(wins) >= 0.9*float64(pairs) {
		return improved
	}
	return unchanged
}

// gather groups the untraced runs of a result set by workload and metric,
// adding the metrics only -compare gates.
func gather(recs []record) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range recs {
		if r.Detail.Trace != 0 {
			continue
		}
		w := out[r.Detail.Workload]
		if w == nil {
			w = map[string][]float64{}
			out[r.Detail.Workload] = w
		}
		for name, v := range r.Result.Metrics {
			w[name] = append(w[name], v.Value)
		}
		for _, def := range derived {
			if def.Name != "best_fitness" { // see fitnessBySeed
				w[def.Name] = append(w[def.Name], derivedValue(def.Name, r.Result, &r.Detail))
			}
		}
	}
	return out
}

// fitnessBySeed maps workload and seed to the best fitness of an untraced
// run. Fitness is bit-exact for a seed wherever training is lockstep — the
// lockstep workloads and the run that trains the serving artifact — and moves
// with the seed by far more than its bound, so it is compared run against run
// of the same seed, never across the runs of a side.
func fitnessBySeed(recs []record) map[string]map[uint64]float64 {
	out := map[string]map[uint64]float64{}
	for _, r := range recs {
		if r.Detail.Trace != 0 || trainSpecs[r.Detail.Workload].async {
			continue
		}
		if out[r.Detail.Workload] == nil {
			out[r.Detail.Workload] = map[uint64]float64{}
		}
		out[r.Detail.Workload][r.Detail.Seed] = r.Detail.Extra["best_fitness"]
	}
	return out
}

// pairBySeed returns the values of a and b on the seeds both have, in seed
// order, and the largest amount by which b is above a on one of them.
func pairBySeed(a, b map[uint64]float64) (va, vb []float64, worst float64) {
	var seeds []uint64
	for s := range a {
		if _, ok := b[s]; ok {
			seeds = append(seeds, s)
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	worst = math.Inf(-1)
	for _, s := range seeds {
		va, vb = append(va, a[s]), append(vb, b[s])
		worst = math.Max(worst, b[s]-a[s])
	}
	return va, vb, worst
}

// compareFiles prints one row per (metric, workload) with both sides'
// medians and quartiles and a verdict, and reports whether any row regressed
// or failed more. Comparing two result sets of one commit is the A/A
// repeatability check: every row should read unchanged.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	ra, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	rb, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	ga, gb := gather(ra), gather(rb)
	fa, fb := fitnessBySeed(ra), fitnessBySeed(rb)
	defs := append(append([]metricDef(nil), endToEnd...), derived...)
	bad := false
	counts := map[string]int{}
	fmt.Fprintf(w, "%-18s %-16s %4s %36s %36s %9s  %s\n", "workload", "metric", "runs", "A q1 / median / q3", "B q1 / median / q3", "B vs A", "verdict")
	var names []string
	for name := range ga {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, wl := range names {
		for _, def := range defs {
			va, vb := ga[wl][def.Name], gb[wl][def.Name]
			worstFitness := 0.0
			if def.Name == "best_fitness" {
				va, vb, worstFitness = pairBySeed(fa[wl], fb[wl])
			}
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a, b := newSide(va), newSide(vb)
			verdict := judge(def, a, b)
			if def.Name == "best_fitness" {
				verdict = unchanged
				if worstFitness > def.Bound {
					verdict = regressed
				}
			}
			if verdict == regressed {
				bad = true
			}
			counts[verdict]++
			delta := "n/a"
			if a.q2 != 0 {
				delta = fmt.Sprintf("%+.2f%%", 100*(b.q2-a.q2)/math.Abs(a.q2))
			}
			fmt.Fprintf(w, "%-18s %-16s %2d/%-2d %36s %36s %9s  %s\n", wl, def.Name, len(va), len(vb),
				fmt.Sprintf("%.5g / %.5g / %.5g", a.q1, a.q2, a.q3),
				fmt.Sprintf("%.5g / %.5g / %.5g", b.q1, b.q2, b.q3), delta, verdict)
		}
	}
	fmt.Fprintf(w, "improved %d, unchanged %d, regressed %d, unresolved %d\n",
		counts[improved], counts[unchanged], counts[regressed], counts[unresolved])
	return bad, nil
}
