package core

import (
	"testing"

	"gosvm/internal/mem"
)

// oneWriterApp stores into a single page from node 0 each episode, then
// everyone barriers. The active writer set is fixed, so per-sync-op
// protocol work must not grow with machine size.
func oneWriterApp(episodes int) *testApp {
	var addr mem.Addr
	return &testApp{
		name:  "onewriter",
		setup: func(s *Setup) { addr = s.Alloc(1) },
		init: func(w *Init) {
			w.Store(addr, 0)
			w.SetHome(addr, 1, 0)
		},
		worker: func(c *Ctx, id int) {
			for e := 0; e < episodes; e++ {
				if id == 0 {
					c.Store(addr, float64(e+1))
				}
				c.Barrier(e)
			}
		},
		gather: func(c *Ctx) []float64 { return []float64{c.Load(addr)} },
	}
}

// allWritersApp has every node store to its own page each episode, then
// barrier, so the write notices per barrier grow with the machine.
func allWritersApp(episodes int) *testApp {
	var addrs []mem.Addr
	return &testApp{
		name: "allwriters",
		setup: func(s *Setup) {
			addrs = make([]mem.Addr, s.P)
			for i := range addrs {
				addrs[i] = s.Alloc(1)
			}
		},
		init: func(w *Init) {
			for i, a := range addrs {
				w.Store(a, 0)
				w.SetHome(a, 1, i)
			}
		},
		worker: func(c *Ctx, id int) {
			for e := 0; e < episodes; e++ {
				c.Store(addrs[id], float64(e+1))
				c.Barrier(e)
			}
		},
		gather: func(c *Ctx) []float64 {
			out := make([]float64, len(addrs))
			for i, a := range addrs {
				out[i] = c.Load(a)
			}
			return out
		},
	}
}

// checkSyncOpAllocsFlat compares the host allocation count per (node x
// barrier episode) at 8 nodes, which take the centralized barrier, and at
// 96, which take the tree (auto crossover at 64), so both implementations
// are under guard. Many episodes amortise first-touch state away; a
// single episode measures it.
func checkSyncOpAllocsFlat(t *testing.T, proto Protocol, app func(episodes int) *testApp, episodes int) {
	perOp := func(p int) float64 {
		total := testing.AllocsPerRun(2, func() {
			if _, err := Run(testOpts(proto, p), app(episodes), false); err != nil {
				t.Fatal(err)
			}
		})
		return total / float64(p*episodes)
	}
	small := perOp(8)
	large := perOp(96)
	t.Logf("allocs per sync op: %.1f at p=8, %.1f at p=96", small, large)
	if large > 1.6*small+2 {
		t.Errorf("allocs per sync op grew with machine size: %.1f at p=8, %.1f at p=96", small, large)
	}
}

// TestSyncOpAllocsFlatInNodeCount guards the scaling contract: the host
// allocation COUNT per (node x barrier episode) stays constant as the
// machine grows. Sparse vector clocks, the tree barrier, and lazily
// materialized per-node state keep it O(1); a regression to dense
// per-node vectors or eager state shows up as per-op allocations
// scaling with the node count. (Allocation sizes may still grow — one
// dense clock buffer is one allocation at any machine size.)
func TestSyncOpAllocsFlatInNodeCount(t *testing.T) {
	for _, proto := range []Protocol{ProtoHLRC, ProtoLRC} {
		t.Run(string(proto), func(t *testing.T) {
			checkSyncOpAllocsFlat(t, proto, oneWriterApp, 30)
		})
	}
}

// TestSyncOpAllocsFlatInWriterCount extends the contract to a machine on
// which every node writes between barriers: interval records are shared
// by pointer, so per-sync-op allocations must not grow with the number of
// writers whose notices a node receives. LRC and OLRC are left out on
// purpose: their per-page write-notice lists are protocol state that is
// O(writers) by design (the paper's Table 6 metadata growth), not a host
// copy this test could flag.
func TestSyncOpAllocsFlatInWriterCount(t *testing.T) {
	for _, proto := range []Protocol{ProtoHLRC, ProtoOHLRC} {
		t.Run(string(proto), func(t *testing.T) {
			checkSyncOpAllocsFlat(t, proto, allWritersApp, 30)
		})
	}
}

// TestSyncOpAllocsFlatAtFirstTouch runs one all-writers episode, so every
// node's first write notice from every writer dominates: the per-writer
// log and the per-page requirement vectors it materializes are carved
// from per-node slabs, so first touch must not cost allocations per
// (node, writer) either.
func TestSyncOpAllocsFlatAtFirstTouch(t *testing.T) {
	for _, proto := range []Protocol{ProtoHLRC, ProtoOHLRC} {
		t.Run(string(proto), func(t *testing.T) {
			checkSyncOpAllocsFlat(t, proto, allWritersApp, 1)
		})
	}
}
