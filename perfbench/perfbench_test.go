package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"gosvm/internal/apps"
	"gosvm/internal/core"
	"gosvm/internal/sim"
)

// tiny is the scale the tests run every workload at.
var tiny = scale{
	gridSize: apps.SizeTest, gridNodes: 4,
	sorH: 64, sorW: 32, sorIters: 2, sorNodes: 64,
	serveNodes: 8, serveWindow: 20 * sim.Millisecond, serveKeys: 256, serveRate: 1.0 / 8,
}

// The grammar BENCHMARK.json imposes on metric and workload names and on
// units.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func validName(s string) bool { return nameRE.MatchString(s) }

func validUnit(s string) bool { return unitRE.MatchString(s) }

func TestModuleOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.gopark", "gosvm/internal/sim.(*Proc).Park", "gosvm/internal/core.(*Ctx).Barrier"}, "sim"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "gosvm/internal/core.(*hlrcEngine).applyGrant", "gosvm/internal/sim.(*Kernel).Run"}, "core"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"gosvm/internal/vc.TopoSort", "gosvm/internal/core.(*lrcEngine).bringUpToDate"}, "vc"},
		{[]string{"gosvm/internal/vc.(*Sparse).Max[...]", "gosvm/internal/core.x"}, "vc"},
		// Packages that are not layers are charged to their caller.
		{[]string{"gosvm/internal/trace.(*Log).Add", "gosvm/internal/core.(*System).trace"}, "core"},
		{[]string{"runtime.mallocgc", "main.runPass", "runtime.main"}, "other"},
		{[]string{"gosvm/internal/corex.f"}, "other"},
		{nil, "other"},
	} {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("moduleOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestNameGrammar(t *testing.T) {
	for _, s := range []string{"wall_s", "self_s.core", "run_s.water-nsq", "sim_p99_ms.r40k", "0x", strings.Repeat("a", 64)} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	for _, s := range []string{"", "_x", ".x", "-x", "a b", "a/b", "é", strings.Repeat("a", 65)} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
	for _, s := range []string{"s", "ms", "1/s", "%", "count", "MB"} {
		if !validUnit(s) {
			t.Errorf("validUnit(%q) = false", s)
		}
	}
	for _, s := range []string{"", "m s", strings.Repeat("u", 17)} {
		if validUnit(s) {
			t.Errorf("validUnit(%q) = true", s)
		}
	}

	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(d.name) || !validUnit(d.unit) || seen[d.name] {
			t.Errorf("metric %q (unit %q): bad or duplicate", d.name, d.unit)
		}
		seen[d.name] = true
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %q: better = %q", d.name, d.better)
		}
	}
	for _, w := range workloads {
		if !validName(w.name) || seen[w.name] {
			t.Errorf("workload %q: bad or duplicate name", w.name)
		}
		seen[w.name] = true
	}
	for _, m := range append(modules, "gc", "other") {
		if !seen["self_s."+m] {
			t.Errorf("%q has no self_s metric", m)
		}
	}
	for _, m := range append(modules, "other") {
		if !seen["alloc_mb."+m] {
			t.Errorf("%q has no alloc_mb metric", m)
		}
	}
	for _, l := range serveLoads {
		if !seen["sim_p50_ms."+l.name] || !seen["sim_p99_ms."+l.name] {
			t.Errorf("serve load %q has no latency metrics", l.name)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json describes what the code
// measures: the same workloads and metrics, with bounds the driver accepts.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why || len(got.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has %q: %q", i, got, w.name, w.why)
		}
	}
	check := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != bounded {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, d)
				continue
			}
			if bounded && (*g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s %q: bound %v, code %v", kind, d.name, *g.Bound, d.bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	largest := 0.0
	for _, d := range endToEnd {
		largest = math.Max(largest, d.bound)
	}
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].bound != largest {
		t.Errorf("setup_s must come first with unit s and the largest bound, got %+v", endToEnd[0])
	}
}

func spin(d time.Duration) (n int) {
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	pprof.Do(context.Background(), pprof.Labels("cell", "busy"), func(context.Context) { spin(300 * time.Millisecond) })
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var labelled int64
	for _, s := range samples {
		if s.cell == "busy" && strings.Contains(strings.Join(s.stack, " "), ".spin") {
			labelled += s.nanos
		}
	}
	if labelled < int64(100*time.Millisecond) {
		t.Errorf("only %v of CPU samples under the spin loop with its label, from %d samples", time.Duration(labelled), len(samples))
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

func TestMatchOracle(t *testing.T) {
	want := []float64{1, 0, 1e6}
	if err := matchOracle(want, []float64{1, 0, 1e6}, 0); err != nil {
		t.Error(err)
	}
	if matchOracle(want, []float64{1, math.Copysign(0, -1), 1e6}, 0) == nil {
		t.Error("bitwise check accepted -0 for 0")
	}
	if err := matchOracle(want, []float64{1, 0, 1e6 * (1 + 1e-10)}, 1e-9); err != nil {
		t.Error(err)
	}
	if matchOracle(want, []float64{1, 0, 1e6 * (1 + 1e-8)}, 1e-9) == nil {
		t.Error("tolerance check accepted a 1e-8 relative error")
	}
	if matchOracle(want, want[:2], 0) == nil {
		t.Error("length mismatch accepted")
	}
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks that outputs validate and every reported metric is present.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := measure(w, tiny, 1, time.Nanosecond, false, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct() || r.attempted < 1 {
				t.Fatalf("correct=%v attempted=%d problems=%v", r.correct(), r.attempted, r.problems)
			}
			if n := len(r.samples["wall_s"]); n < minPasses {
				t.Errorf("%d passes, want >= %d", n, minPasses)
			}
			for _, d := range endToEnd {
				if v, ok := r.metrics[d.name]; !ok || !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.name, v)
				}
			}
			var out bytes.Buffer
			if err := r.write(&out, endToEnd); err != nil {
				t.Fatal(err)
			}
			checkSummary(t, out.String(), endToEnd)

			r, err = measure(w, tiny, 1, time.Nanosecond, true, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct() {
				t.Fatalf("traced: problems %v", r.problems)
			}
			for _, name := range []string{"trace_overhead_pct", "self_s.core", "alloc_mb.core", "msgs"} {
				if _, ok := r.metrics[name]; !ok {
					t.Errorf("traced run has no %s", name)
				}
			}
			out.Reset()
			if err := r.write(&out, perLayer); err != nil {
				t.Fatal(err)
			}
			checkSummary(t, out.String(), perLayer)
		})
	}
}

// checkSummary checks the last line of a report: exactly the summary keys
// and one value with its unit per metric.
func checkSummary(t *testing.T, report string, defs []metricDef) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(report), "\n")
	var sum map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum) != 4 || sum["correct"] == nil || sum["attempted"] == nil || sum["failed"] == nil || sum["metrics"] == nil {
		t.Fatalf("summary keys: %s", lines[len(lines)-1])
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(sum["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(defs) {
		t.Errorf("summary has %d metrics, want %d", len(metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := metrics[d.name]; !ok || m.Value == nil || m.Unit != d.unit {
			t.Errorf("summary metric %s = %+v", d.name, m)
		}
	}
}

// passDigest sets up and runs one tiny pass and returns its simulated
// statistics digest.
func passDigest(t *testing.T, w *workload, seed int64, workers int) string {
	t.Helper()
	p, err := setup(w, tiny, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	outs := runPass(p)
	validate(p, outs)
	for _, o := range outs {
		if o.err != nil {
			t.Fatalf("%s: %v", o.spec.name, o.err)
		}
	}
	d, err := simDigest(outs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSimulatedDeterminism checks that the simulated statistics repeat
// exactly for a seed, at one and two run-workers, and that the seed
// reaches the workloads that take generated inputs.
func TestSimulatedDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			d1 := passDigest(t, w, 5, 1)
			if d2 := passDigest(t, w, 5, 2); d2 != d1 {
				t.Error("statistics differ between 1 and 2 run-workers")
			}
			if d := passDigest(t, w, 5, 1); d != d1 {
				t.Error("statistics differ between two runs of one seed")
			}
			seeded := w.name == "serve-zipf" || w.name == "faults-mesh"
			if d := passDigest(t, w, 6, 1); (d != d1) != seeded {
				t.Errorf("another seed changed the statistics: %v, want %v", d != d1, seeded)
			}
		})
	}
}

// TestValidationFails checks that a wrong result fails the run: the pass
// counts the cell as failed.
func TestValidationFails(t *testing.T) {
	w, err := workloadByName("paper-grid")
	if err != nil {
		t.Fatal(err)
	}
	p, err := setup(w, tiny, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.oracle["sor"].Data[0]++
	outs := runPass(p)
	validate(p, outs)
	attempted, failed := ops(p, outs)
	if want := int64(len(core.Protocols)); failed != want || attempted != int64(len(outs)) {
		t.Errorf("failed %d of %d operations, want %d of %d", failed, attempted, want, len(outs))
	}
}
