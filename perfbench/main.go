// Command perfbench is the repository's benchmark. It runs one workload
// of simulation cells in this process, validates every output against
// the sequential oracle, and prints every metric by name with its unit;
// the last line of standard output is a JSON summary.
//
// Build and run it from the repository root:
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the summary holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of profiled passes, which alternate with
// unprofiled ones so the tracing overhead shows. The exit code is non-zero
// if any output fails validation. See README.md for the workloads and
// metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// minPasses is the fewest timed unprofiled passes an end-to-end run
// makes after its warm-up pass; maxRun stops starting passes once a run
// has taken this long.
const (
	minPasses = 3
	maxRun    = 150 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload to run: paper-grid, sor-1024, serve-zipf or faults-mesh")
	seed := flag.Int64("seed", 1, "seed of the serve traces and fault plans (>= 0)")
	seconds := flag.Int("seconds", 10, "measure for at least this many seconds")
	trace := flag.Int("trace", 0, "1 profiles alternate passes and reports the per-layer metrics")
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && (*seed < 0 || *seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("need --seed >= 0, --seconds >= 1 and --trace 0 or 1")
	}
	if err != nil || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("# host %s\n", fingerprint(w))
	r, err := measure(w, full, *seed, time.Duration(*seconds)*time.Second, *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	if err := r.write(os.Stdout, defs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !r.correct() {
		os.Exit(1)
	}
}

// result is one run's outcome: every metric computed, the operations
// attempted and failed, and what went wrong.
type result struct {
	metrics           map[string]float64
	samples           map[string][]float64 // per-pass values of host metrics
	attempted, failed int64
	problems          []string
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// measure runs passes of w for about budget: each pass sets up fresh
// inputs, then runs every cell once. Pass 0 warms up the heap and caches
// and is not timed. With traced set, every second timed pass runs under
// the CPU and allocation profilers.
//
// wall_s and cpu_s sum, over the cells, each cell's fastest timed run:
// interference from other work on the host only ever slows a cell down,
// so the fastest of several runs is the steadiest estimate of its cost.
func measure(w *workload, sc scale, seed int64, budget time.Duration, traced bool, log io.Writer) (*result, error) {
	r := &result{metrics: map[string]float64{}, samples: map[string][]float64{}}
	var (
		start      = time.Now()
		digest     string
		profiled   int
		cellTimes  cellSamples // unprofiled passes
		tracedWall cellSamples // profiled passes
		selfNanos  = map[string]float64{}
		allocBytes = map[string]float64{}
		runTimes   = map[string]float64{}
		cellNanos  = map[string]float64{}
	)
	for pass := 0; ; pass++ {
		warm := pass == 0
		prof := traced && !warm && pass%2 == 0
		t0 := time.Now()
		p, err := setup(w, sc, seed, w.workers)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS := time.Since(t0).Seconds()

		runtime.GC()
		var cpuProf bytes.Buffer
		var mem0 memCounts
		if prof {
			mem0 = memSnapshot()
			if err := pprof.StartCPUProfile(&cpuProf); err != nil {
				return nil, err
			}
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		t1 := time.Now()
		outs := runPass(p)
		wall := time.Since(t1)
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&ms1)
		switch {
		case prof:
			pprof.StopCPUProfile()
			for m, b := range allocByModule(mem0, memSnapshot()) {
				allocBytes[m] += b
			}
			samples, err := parseCPUProfile(cpuProf.Bytes())
			if err != nil {
				return nil, err
			}
			for _, s := range samples {
				selfNanos[moduleOf(s.stack)] += float64(s.nanos)
				if s.cell != "" {
					cellNanos[s.cell] += float64(s.nanos)
				}
			}
			for k, v := range hostRunTimes(outs) {
				runTimes[k] += v
			}
			tracedWall.add(outs)
			profiled++
		case !warm:
			cellTimes.add(outs)
			for k, v := range map[string]float64{
				"setup_s":   setupS,
				"alloc_mb":  float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6,
				"mallocs_k": float64(ms1.Mallocs-ms0.Mallocs) / 1e3,
			} {
				r.samples[k] = append(r.samples[k], v)
			}
		}

		validate(p, outs)
		attempted, failed := ops(p, outs)
		r.attempted += attempted
		r.failed += failed
		for _, o := range outs {
			if o.err != nil {
				r.problems = append(r.problems, fmt.Sprintf("pass %d: %s: %v", pass, o.spec.name, o.err))
			}
		}
		d, err := simDigest(outs)
		if err != nil {
			return nil, err
		}
		if pass == 0 {
			digest = d
			for k, v := range simMetrics(p, outs) {
				r.metrics[k] = v
			}
		} else if d != digest {
			// Identical inputs must give identical simulated results,
			// traced or not: the whole pass counts as failed.
			r.problems = append(r.problems, fmt.Sprintf("pass %d: simulated statistics differ from pass 0", pass))
			r.failed += attempted - failed
		}
		kind := "pass"
		switch {
		case warm:
			kind = "warm-up pass"
		case prof:
			kind = "profiled pass"
		}
		fmt.Fprintf(log, "# %s %d: setup %.3fs wall %.3fs cpu %.3fs cells %d failed-ops %d\n",
			kind, pass, setupS, wall.Seconds(), cpu.Seconds(), len(outs), failed)

		// Stop once another pass would end past the budget, so a run
		// lasts about budget, warm-up included.
		elapsed := time.Since(start)
		full := elapsed+time.Since(t0) > budget
		enough := len(cellTimes) >= minPasses && full
		if traced {
			enough = prof && full
		}
		if enough || (elapsed >= maxRun && len(cellTimes) > 0 && (!traced || prof)) {
			break
		}
	}

	for k, v := range r.samples {
		r.metrics[k] = median(v)
	}
	r.metrics["wall_s"] = cellTimes.fastest(func(c cellTime) float64 { return c.wall })
	r.metrics["cpu_s"] = cellTimes.fastest(func(c cellTime) float64 { return c.cpu })
	r.samples["wall_s"] = cellTimes.totals(func(c cellTime) float64 { return c.wall })
	r.samples["cpu_s"] = cellTimes.totals(func(c cellTime) float64 { return c.cpu })
	r.metrics["peak_rss_mb"] = peakRSS() / 1e6
	r.metrics["error_rate"] = float64(r.failed) / float64(r.attempted)
	if profiled > 0 {
		n := float64(profiled)
		for _, m := range append(modules, "other") {
			r.metrics["alloc_mb."+m] = allocBytes[m] / 1e6 / n
		}
		for _, m := range append(modules, "gc", "other") {
			r.metrics["self_s."+m] = selfNanos[m] / 1e9 / n
		}
		for k, v := range runTimes {
			r.metrics[k] = v / n
		}
		tw := tracedWall.fastest(func(c cellTime) float64 { return c.wall })
		r.metrics["trace_overhead_pct"] = 100 * (tw/r.metrics["wall_s"] - 1)
		printCells(log, cellNanos, n)
	}
	return r, nil
}

// cellTime is the host cost of one cell's run.
type cellTime struct{ wall, cpu float64 }

// cellSamples holds the cell times of several passes: one slice of cells
// per pass.
type cellSamples [][]cellTime

func (s *cellSamples) add(outs []cellOut) {
	pass := make([]cellTime, len(outs))
	for i, o := range outs {
		pass[i] = cellTime{o.host.Seconds(), o.cpu.Seconds()}
	}
	*s = append(*s, pass)
}

// fastest sums, over the cells, the smallest value of each cell.
func (s cellSamples) fastest(of func(cellTime) float64) float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for c := range s[0] {
		best := of(s[0][c])
		for _, pass := range s[1:] {
			best = min(best, of(pass[c]))
		}
		sum += best
	}
	return sum
}

// totals is each pass's sum over its cells.
func (s cellSamples) totals(of func(cellTime) float64) []float64 {
	t := make([]float64, len(s))
	for i, pass := range s {
		for _, c := range pass {
			t[i] += of(c)
		}
	}
	return t
}

// printCells lists the cells by CPU time per profiled pass, from the
// pprof "cell" label, largest first.
func printCells(w io.Writer, cellNanos map[string]float64, passes float64) {
	cells := make([]string, 0, len(cellNanos))
	var total float64
	for c, v := range cellNanos {
		cells = append(cells, c)
		total += v
	}
	sort.Slice(cells, func(i, j int) bool { return cellNanos[cells[i]] > cellNanos[cells[j]] })
	for _, c := range cells {
		fmt.Fprintf(w, "# cell %-28s cpu %8.3f s  %5.1f%%\n", c, cellNanos[c]/1e9/passes, 100*cellNanos[c]/total)
	}
}

// write prints every computed metric with its unit, then the JSON
// summary of defs as the last line.
func (r *result) write(w io.Writer, defs []metricDef) error {
	for _, p := range r.problems {
		fmt.Fprintf(w, "# FAILED %s\n", p)
	}
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range table {
			v, ok := r.metrics[d.name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("%-22s %14.6g %-8s %-6s", d.name, v, d.unit, d.better)
			if s := r.samples[d.name]; len(s) > 1 {
				line += fmt.Sprintf(" n=%d min=%.6g max=%.6g", len(s), minOf(s), maxOf(s))
			}
			if d.target != "" {
				line += " -> " + d.target
			}
			fmt.Fprintln(w, line)
		}
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]metric{}}
	for _, d := range defs {
		out.Metrics[d.name] = metric{r.metrics[d.name], d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident memory in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // kilobytes on Linux
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		m = min(m, x)
	}
	return m
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		m = max(m, x)
	}
	return m
}
