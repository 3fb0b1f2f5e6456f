package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"runtime/pprof"
	"time"

	"gosvm/internal/apps"
	"gosvm/internal/core"
	"gosvm/internal/fault"
	"gosvm/internal/serve"
	"gosvm/internal/sim"
	"gosvm/internal/stats"
)

// scale fixes the problem sizes of every workload. full is what the
// benchmark measures; the tests run a tiny one.
type scale struct {
	gridSize  apps.Size // paper-grid and faults-mesh problem size
	gridNodes int       // paper-grid and faults-mesh machine size

	sorH, sorW, sorIters, sorNodes int

	serveNodes  int
	serveWindow sim.Time
	serveKeys   int
	// serveRate multiplies the nominal 15k and 40k req/s offered loads,
	// so a smaller machine sees the same per-node load.
	serveRate float64
}

// full is the measured scale. The 1024-node SOR grid is 1024x512: one
// row block per node, with ~1.1 GB peak RSS. ROADMAP's 2048x1024 grid
// needs ~2.5 GB for the same per-node protocol work.
var full = scale{
	gridSize: apps.SizeSmall, gridNodes: 32,
	sorH: 1024, sorW: 512, sorIters: 4, sorNodes: 1024,
	serveNodes: 64, serveWindow: sim.Second, serveKeys: 4096, serveRate: 1,
}

// Machine parameters of the paper's grid (bench.NewRunner uses the same).
const (
	pageBytes   = 8192
	gcThreshold = 8 << 20
)

// A workload is a fixed list of simulation cells. One pass runs every
// cell once, one after another.
type workload struct {
	name string
	why  string
	// workers is the run-workers of each cell: host threads inside one
	// simulation. Cells the kernel cannot partition (mesh, faults,
	// recovery) fall back to the sequential kernel.
	workers int
	cells   func(sc scale, seed int64) ([]cellSpec, error)
}

// cellSpec is one simulation: an app (or the KV serving workload) under
// one protocol and machine.
type cellSpec struct {
	name string // unique within the workload; also the pprof label
	app  string // the app name run_s.<app> reports under
	opts core.Options
	// newApp builds a fresh app instance; nil for serve cells.
	newApp func() (core.App, error)
	// serve is the serving configuration; nil for app cells.
	serve *serve.Config
	// tol is the relative tolerance against the sequential oracle; zero
	// means bitwise equality.
	tol float64
}

var workloads = []*workload{
	{
		name:    "paper-grid",
		why:     "the paper's Table 2 at 32 nodes: engines, diffs and apps do the work; the only run of the homeless engines at scale. The model is not validated against hardware",
		workers: 1,
		cells:   gridCells,
	},
	{
		name:    "sor-1024",
		why:     "ROADMAP's scale run at 1024 nodes: kernel windows, tree barrier, sparse vector clocks, grant application and GC carry it; apps is ~1%",
		workers: 2,
		cells:   sorCells,
	},
	{
		name:    "serve-zipf",
		why:     "open-loop Zipf KV serving at 15k and 40k req/s: many short lock and fetch events; lock-free gets and locked puts share pages",
		workers: 2,
		cells:   serveCells,
	},
	{
		name:    "faults-mesh",
		why:     "reliable delivery, the fault injector, mesh links and manager failover run only here",
		workers: 2,
		cells:   faultCells,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// oracleTol is the validation tolerance per app: the water codes sum
// forces in an order that depends on the schedule, the others are exact.
func oracleTol(app string) float64 {
	if app == "water-nsq" || app == "water-sp" {
		return 1e-9
	}
	return 0
}

func appCell(app string, proto core.Protocol, size apps.Size, m core.Machine) cellSpec {
	return cellSpec{
		name:   app + "/" + string(proto),
		app:    app,
		opts:   core.Options{Protocol: proto, PageBytes: pageBytes, GCThreshold: gcThreshold, Machine: m},
		newApp: func() (core.App, error) { return apps.New(app, size) },
		tol:    oracleTol(app),
	}
}

func gridCells(sc scale, _ int64) ([]cellSpec, error) {
	var cells []cellSpec
	for _, app := range apps.Names {
		for _, proto := range core.Protocols {
			cells = append(cells, appCell(app, proto, sc.gridSize, core.Machine{Nodes: sc.gridNodes}))
		}
	}
	return cells, nil
}

func sorCells(sc scale, _ int64) ([]cellSpec, error) {
	return []cellSpec{{
		name: "sor/hlrc",
		app:  "sor",
		opts: core.Options{
			Protocol: core.ProtoHLRC, PageBytes: 4096, GCThreshold: gcThreshold,
			Machine: core.Machine{Nodes: sc.sorNodes},
		},
		newApp: func() (core.App, error) {
			return &apps.SOR{H: sc.sorH, W: sc.sorW, Iters: sc.sorIters, ElemNs: 9700}, nil
		},
	}}, nil
}

// serveLoads are the offered loads of serve-zipf, named by their rate at
// 64 nodes. 40k req/s sits just below the knee of the striped-lock plus
// seqlock server (p99 ~11 ms; ~99 ms at 50k).
var serveLoads = []struct {
	name string
	rate float64
}{{"r15k", 15000}, {"r40k", 40000}}

func serveCells(sc scale, seed int64) ([]cellSpec, error) {
	var cells []cellSpec
	for _, l := range serveLoads {
		cfg := serve.Config{
			Keys:        sc.serveKeys,
			OfferedLoad: l.rate * sc.serveRate,
			Window:      sc.serveWindow,
			ZipfTheta:   0.99,
			Seed:        inputSeed(seed),
		}
		if err := serve.ApplyFastpath(&cfg, serve.ModeSeqlock); err != nil {
			return nil, err
		}
		cells = append(cells, cellSpec{
			name:  l.name,
			app:   "kv-serve",
			opts:  core.Options{Protocol: core.ProtoOHLRC, Machine: core.Machine{Nodes: sc.serveNodes}},
			serve: &cfg,
		})
	}
	return cells, nil
}

func faultCells(sc scale, seed int64) ([]cellSpec, error) {
	hostile, err := fault.Profile(fault.ProfileHostile, inputSeed(seed))
	if err != nil {
		return nil, err
	}
	crashMgr, err := fault.Profile(fault.ProfileCrashMgr, inputSeed(seed))
	if err != nil {
		return nil, err
	}
	mesh := core.Machine{Nodes: sc.gridNodes, Topology: core.TopoMesh}
	var cells []cellSpec
	for _, app := range []string{"sor", "water-nsq", "raytrace"} {
		for _, proto := range []core.Protocol{core.ProtoLRC, core.ProtoHLRC} {
			c := appCell(app, proto, sc.gridSize, mesh)
			c.name += "/hostile"
			c.opts.Fault = hostile
			cells = append(cells, c)
		}
		c := appCell(app, core.ProtoOHLRC, sc.gridSize, core.Machine{Nodes: sc.gridNodes})
		c.name += "/crash-mgr"
		c.opts.Fault = crashMgr
		c.opts.Recovery = core.Recovery{Replicas: 1}
		cells = append(cells, c)
	}
	return cells, nil
}

// inputSeed maps the benchmark's --seed onto the serve-trace and
// fault-plan seed. serve.Config reads seed zero as its default of one, so
// the map is shifted to keep --seed 0 and 1 apart.
func inputSeed(seed int64) int64 { return seed + 1 }

// prepared is one pass's inputs: a fresh instance per cell plus the
// sequential oracle of every app the cells run.
type prepared struct {
	specs []cellSpec
	app   []core.App  // per cell; nil for serve cells
	kv    []*serve.KV // per cell; nil for app cells
	// oracle holds each app's sequential run, keyed by app name.
	oracle map[string]*core.Result
}

// setup builds a pass's inputs: apps.New, serve.New trace generation,
// fault plans and the sequential oracle runs that validation and speedups
// use. Every cell runs with the given run-workers.
func setup(w *workload, sc scale, seed int64, workers int) (*prepared, error) {
	specs, err := w.cells(sc, seed)
	if err != nil {
		return nil, err
	}
	for i := range specs {
		specs[i].opts.RunWorkers = workers
	}
	p := &prepared{
		specs:  specs,
		app:    make([]core.App, len(specs)),
		kv:     make([]*serve.KV, len(specs)),
		oracle: map[string]*core.Result{},
	}
	for i := range specs {
		s := &specs[i]
		if s.serve != nil {
			if p.kv[i], err = serve.New(*s.serve, s.opts.Machine.Nodes); err != nil {
				return nil, fmt.Errorf("%s: %w", s.name, err)
			}
			continue
		}
		if p.app[i], err = s.newApp(); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		if _, ok := p.oracle[s.app]; ok {
			continue
		}
		a, err := s.newApp()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		seq := core.Options{Protocol: core.ProtoSeq, NumProcs: 1, PageBytes: s.opts.PageBytes, GCThreshold: s.opts.GCThreshold}
		if p.oracle[s.app], err = core.Run(seq, a, false); err != nil {
			return nil, fmt.Errorf("%s oracle: %w", s.app, err)
		}
	}
	return p, nil
}

// cellOut is one cell's outcome.
type cellOut struct {
	spec *cellSpec
	res  *core.Result
	host time.Duration // host time of core.Run or serve.Run
	cpu  time.Duration // process CPU time during that call
	err  error         // run or validation failure
}

// runPass runs every cell of p once, in order, each under a pprof label
// naming the cell; the kernel's proc goroutines inherit it. It returns
// without validating the app cells (see validate): serve.Run validates
// the store itself.
func runPass(p *prepared) []cellOut {
	outs := make([]cellOut, len(p.specs))
	for i := range p.specs {
		s := &p.specs[i]
		o := &outs[i]
		o.spec = s
		pprof.Do(context.Background(), pprof.Labels("cell", s.name), func(context.Context) {
			cpu0, start := cpuTime(), time.Now()
			if p.kv[i] != nil {
				o.res, o.err = serve.Run(s.opts, p.kv[i])
			} else {
				o.res, o.err = core.Run(s.opts, p.app[i], false)
			}
			o.host = time.Since(start)
			o.cpu = cpuTime() - cpu0
		})
	}
	return outs
}

// validate compares every app cell's gathered data with its sequential
// oracle and records any mismatch as the cell's error. It then drops the
// data, which the metrics do not need.
func validate(p *prepared, outs []cellOut) {
	for i := range outs {
		o := &outs[i]
		if o.err != nil || o.spec.serve != nil {
			continue
		}
		if err := matchOracle(p.oracle[o.spec.app].Data, o.res.Data, o.spec.tol); err != nil {
			o.err = fmt.Errorf("%s: %w", o.spec.name, err)
		}
		o.res.Data = nil
	}
}

// matchOracle checks got against want: bitwise when tol is zero, else
// within tol relative to max(1, |want|), as the apps' own tests do.
func matchOracle(want, got []float64, tol float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("gathered %d words, oracle has %d", len(got), len(want))
	}
	for i := range want {
		if tol == 0 {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				return fmt.Errorf("word %d = %v, oracle %v", i, got[i], want[i])
			}
			continue
		}
		if math.Abs(want[i]-got[i])/math.Max(1, math.Abs(want[i])) > tol {
			return fmt.Errorf("word %d = %v, oracle %v (tolerance %g)", i, got[i], want[i], tol)
		}
	}
	return nil
}

// ops counts a pass's attempted and failed operations: one per app cell,
// one per generated serve request. A failed cell fails all its
// operations; a serve request generated but not completed fails.
func ops(p *prepared, outs []cellOut) (attempted, failed int64) {
	for i, o := range outs {
		n := int64(1)
		if p.kv[i] != nil {
			n = p.kv[i].Generated()
		}
		attempted += n
		switch {
		case o.err != nil:
			failed += n
		case o.res.Stats.Serve != nil:
			failed += o.res.Stats.Serve.Generated - o.res.Stats.Serve.Completed
		}
	}
	return attempted, failed
}

// simDigest hashes every successful cell's simulated statistics, so two
// passes over the same inputs can be checked for identical results.
func simDigest(outs []cellOut) (string, error) {
	h := sha256.New()
	for _, o := range outs {
		if o.err != nil {
			fmt.Fprintf(h, "%s: failed\n", o.spec.name)
			continue
		}
		b, err := json.Marshal(o.res.Stats)
		if err != nil {
			return "", fmt.Errorf("%s: %w", o.spec.name, err)
		}
		fmt.Fprintf(h, "%s: %s\n", o.spec.name, b)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// simMetrics derives the simulated metrics of a pass. They are read from
// the run statistics, so they are exact: the same inputs give the same
// values at any run-workers and on any host.
func simMetrics(p *prepared, outs []cellOut) map[string]float64 {
	m := map[string]float64{}
	var (
		shares                   [stats.NumCategories]float64
		logSpeedup               float64
		speedups                 int
		seqReads, seqFallbacks   float64
		msgs, retries            float64
		trafficBytes, mirrorByte float64
	)
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		r := o.res.Stats
		for _, c := range []stats.Class{stats.ClassData, stats.ClassProtocol} {
			trafficBytes += float64(r.TotalBytes(c))
		}
		m["proto_mem_peak_mb"] = math.Max(m["proto_mem_peak_mb"], float64(r.PeakProtoMem())/1e6)
		msgs += float64(r.TotalMsgs())
		var msgsIn, maxIn float64
		for _, nd := range r.Nodes {
			c := nd.Counts
			for k, v := range map[string]int64{
				"read_misses": c.ReadMisses, "write_faults": c.WriteFaults,
				"diffs_created": c.DiffsCreated, "diffs_applied": c.DiffsApplied,
				"pages_fetched": c.PagesFetched, "lock_acquires": c.LockAcquires,
				"lock_forwards": c.LockForwards, "barriers": c.Barriers, "gcs": c.GCs,
				"dups_suppressed": c.DupsSuppressed, "msgs_dropped": c.MsgsDropped,
				"pages_rehomed": c.PagesRehomed, "mgrs_rehomed": c.MgrsRehomed,
				"locks_reclaimed": c.LocksReclaimed,
			} {
				m[k] += float64(v)
			}
			retries += float64(c.Retries)
			mirrorByte += float64(nd.MirrorBytes)
			for cat, d := range nd.Time {
				shares[cat] += float64(d)
			}
			msgsIn += float64(nd.MsgsIn)
			maxIn = math.Max(maxIn, float64(nd.MsgsIn))
		}
		if msgsIn > 0 {
			m["hotspot_skew"] = math.Max(m["hotspot_skew"], maxIn/(msgsIn/float64(len(r.Nodes))))
		}
		if s := r.Serve; s != nil {
			seqReads += float64(s.SeqlockReads)
			seqFallbacks += float64(s.SeqlockFallbacks)
			m["seqlock_retries"] += float64(s.SeqlockRetries)
			m["max_util"] = math.Max(m["max_util"], s.MaxUtil)
			m["sim_p50_ms."+o.spec.name] = s.Latency.P50().Micros() / 1e3
			m["sim_p99_ms."+o.spec.name] = s.Latency.P99().Micros() / 1e3
			continue
		}
		if seq := p.oracle[o.spec.app]; seq != nil && r.Elapsed > 0 {
			logSpeedup += math.Log(float64(seq.Stats.Elapsed) / float64(r.Elapsed))
			speedups++
		}
	}
	m["traffic_mb"] = trafficBytes / 1e6
	m["mirror_mb"] = mirrorByte / 1e6
	m["msgs"] = msgs
	m["retries"] = retries
	if msgs+retries > 0 {
		m["delivery_ratio"] = msgs / (msgs + retries)
	}
	var total float64
	for _, v := range shares {
		total += v
	}
	if total > 0 {
		for cat, v := range shares {
			m["sim_share."+stats.Category(cat).String()] = v / total
		}
	}
	if seqReads+seqFallbacks > 0 {
		m["seqlock_hit_ratio"] = seqReads / (seqReads + seqFallbacks)
	}
	if speedups > 0 {
		m["sim_speedup_geomean"] = math.Exp(logSpeedup / float64(speedups))
	}
	return m
}

// hostRunTimes sums the host time of core.Run and serve.Run per protocol
// and per app, as run_s.<proto> and run_s.<app>.
func hostRunTimes(outs []cellOut) map[string]float64 {
	m := map[string]float64{}
	for _, o := range outs {
		m["run_s."+string(o.spec.opts.Protocol)] += o.host.Seconds()
		m["run_s."+o.spec.app] += o.host.Seconds()
	}
	return m
}
