package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestWindowMergeOrder is the property test for the windowed scheduler's
// merge step: for random workloads of cross-lane posts, every lane
// executes its events in nondecreasing (time, creator rank, creation
// index) order — the deterministic merge order — no matter how the
// handoffs interleave across windows, and the execution is identical at
// 1 worker and many.
func TestWindowMergeOrder(t *testing.T) {
	const lanes = 5
	const lookahead = Time(40)
	for trial := 0; trial < 20; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			// Handlers run concurrently on their lanes, so every piece of
			// harness state a handler touches is per lane: its own rng
			// (seeded from trial and lane, so a lane's draws depend only
			// on its own deterministic event order) and its own log.
			exec := func(workers int) [][]string {
				order := make([][]string, lanes)
				lastKey := make([]event, lanes)
				rngs := make([]*rand.Rand, lanes)
				for i := range rngs {
					rngs[i] = rand.New(rand.NewSource(int64(trial)*lanes + int64(i) + 1))
				}
				k := NewKernel()
				k.Partition(lanes, lookahead, workers)
				// Seed each lane with a chain of events that randomly post
				// forward in time to other lanes, always >= lookahead ahead.
				var chain func(self int, hops int) func()
				chain = func(self int, hops int) func() {
					return func() {
						l := k.lanes[self]
						order[self] = append(order[self], fmt.Sprintf("l%d@%d", self, l.now))
						// Ordering property within the lane: the key of the
						// event being executed must not precede the previous
						// one. We reconstruct it from lane state: at = now.
						cur := event{at: l.now}
						if cur.at < lastKey[self].at {
							t.Errorf("lane %d time went backwards: %d after %d", self, cur.at, lastKey[self].at)
						}
						lastKey[self] = cur
						if hops == 0 {
							return
						}
						rng := rngs[self]
						dst := rng.Intn(lanes)
						delay := lookahead + Time(rng.Intn(60))
						k.Post(self, dst, l.now+delay, chain(dst, hops-1))
					}
				}
				for i := 0; i < lanes; i++ {
					at := Time(rngs[i].Intn(30))
					// Setup-style seeding: rank -1 creators with kernel-wide
					// creation indices, exactly what schedule stamps pre-Run.
					k.lanes[i].push(event{at: at, prank: -1, cidx: int64(i), kind: evFn,
						fn: chain(i, 12)})
				}
				if err := k.Run(); err != nil {
					t.Fatalf("run: %v", err)
				}
				return order
			}
			seqOrder := exec(1)
			parOrder := exec(4)
			// Workers only change host-thread placement: each lane's own
			// event sequence must be identical.
			for l := 0; l < lanes; l++ {
				a, b := seqOrder[l], parOrder[l]
				if len(a) != len(b) {
					t.Fatalf("lane %d: %d events at 1 worker, %d at 4", l, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("lane %d event %d: %q at 1 worker, %q at 4", l, i, a[i], b[i])
					}
				}
			}
		})
	}
}

// TestMergeHeapOrderInsensitive checks the heap key totally orders
// events regardless of insertion order: pushing the same event set in
// random permutations always pops the same sequence. This is what makes
// the window-boundary outbox merge deterministic.
func TestMergeHeapOrderInsensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var evs []event
	for i := 0; i < 200; i++ {
		evs = append(evs, event{
			at:    Time(rng.Intn(20)),
			prank: int64(rng.Intn(10)) - 1,
			cidx:  int64(i), // unique: no two events share a full key
		})
	}
	popAll := func(perm []int) []event {
		var l lane
		for _, i := range perm {
			l.push(evs[i])
		}
		out := make([]event, 0, len(evs))
		for len(l.events) > 0 {
			out = append(out, l.pop())
		}
		return out
	}
	key := func(e *event) [3]int64 {
		return [3]int64{int64(e.at), e.prank, e.cidx}
	}
	ref := popAll(rng.Perm(len(evs)))
	for trial := 0; trial < 10; trial++ {
		got := popAll(rng.Perm(len(evs)))
		for i := range ref {
			if key(&got[i]) != key(&ref[i]) {
				t.Fatalf("trial %d: pop %d = %+v, want %+v", trial, i, got[i], ref[i])
			}
		}
	}
	// And the popped sequence is sorted by the full key.
	for i := 1; i < len(ref); i++ {
		if ref[i].before(&ref[i-1]) {
			t.Fatalf("pop %d out of order: %+v before %+v", i, ref[i], ref[i-1])
		}
	}
}

// TestLookaheadViolationPanics pins the safety check: a cross-lane post
// inside the current window is a bug and must fail loudly.
func TestLookaheadViolationPanics(t *testing.T) {
	k := NewKernel()
	k.Partition(2, 100, 1)
	k.Post(0, 0, 0, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected lookahead-violation panic")
			}
			k.Stop()
		}()
		k.Post(0, 1, k.LaneNow(0)+1, func() {}) // < lookahead ahead: must panic
	})
	defer func() { recover() }() // the lane re-raises; swallow
	_ = k.Run()
}
