package vc

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randTraceOp applies one random mutation to the paired dense/sparse
// vectors, mirroring how the protocols drive per-page vectors: point
// raises (write notices), point sets (own-interval advances), and merges
// with another vector (fetch responses).
func randTraceOp(rng *rand.Rand, n int, d VC, s *Sparse, od VC, os *Sparse) {
	switch rng.Intn(4) {
	case 0: // RaiseTo
		p, x := rng.Intn(n), int32(rng.Intn(8))
		if d[p] < x {
			d[p] = x
		}
		s.RaiseTo(p, x)
	case 1: // Set (including to zero: entry removal)
		p, x := rng.Intn(n), int32(rng.Intn(8))
		d[p] = x
		s.Set(p, x)
	case 2: // MaxWith the other vector
		d.MaxWith(od)
		s.MaxWith(os)
	case 3: // Set on the other vector
		p, x := rng.Intn(n), int32(rng.Intn(8))
		od[p] = x
		os.Set(p, x)
	}
}

// TestSparseMatchesDenseTrace drives a dense VC and a Sparse through the
// same random interval traces and checks every observable agrees at each
// step: components, covers in both directions, equality, NNZ-derived wire
// size, and the materialized dense image.
func TestSparseMatchesDenseTrace(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 2
		da, db := New(n), New(n)
		sa, sb := NewSparse(n), NewSparse(n)
		for step := 0; step < 60; step++ {
			randTraceOp(rng, n, da, sa, db, sb)
			if !sa.Dense(n).Equal(da) || !sb.Dense(n).Equal(db) {
				return false
			}
			if sa.Covers(sb) != da.Covers(db) || sb.Covers(sa) != db.Covers(da) {
				return false
			}
			if sa.Equal(sb) != da.Equal(db) {
				return false
			}
			nnz := 0
			for _, x := range da {
				if x != 0 {
					nnz++
				}
			}
			if sa.NNZ() != nnz || sa.WireSize() != SparseWireSize(n, nnz) {
				return false
			}
			for p := 0; p < n; p++ {
				if sa.Get(p) != da[p] {
					return false
				}
			}
		}
		// Copy independence.
		c := sa.Copy()
		sa.Set(0, 99)
		return c.Get(0) != 99 || da[0] == 99
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestForceDenseEquivalence runs the same trace with ForceDense on and
// off; every observable, including wire sizes, must be identical.
func TestForceDenseEquivalence(t *testing.T) {
	defer func(old bool) { ForceDense = old }(ForceDense)
	run := func(force bool, seed int64) []int {
		ForceDense = force
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 2
		a, b := NewSparse(n), NewSparse(n)
		dummyD, dummyD2 := New(n), New(n)
		var obs []int
		for step := 0; step < 60; step++ {
			// Reuse randTraceOp's op sequence by mutating paired dense
			// vectors too (they are ignored here but keep rng in sync).
			randTraceOp(rng, n, dummyD, a, dummyD2, b)
			obs = append(obs, a.WireSize(), b.WireSize(), a.NNZ(), b.NNZ())
			if a.Covers(b) {
				obs = append(obs, 1)
			} else {
				obs = append(obs, 0)
			}
			for p := 0; p < n; p++ {
				obs = append(obs, int(a.Get(p)), int(b.Get(p)))
			}
		}
		return obs
	}
	for seed := int64(0); seed < 25; seed++ {
		sparse := run(false, seed)
		dense := run(true, seed)
		if len(sparse) != len(dense) {
			t.Fatalf("seed %d: observation length differs", seed)
		}
		for i := range sparse {
			if sparse[i] != dense[i] {
				t.Fatalf("seed %d: observation %d differs: sparse=%d dense=%d", seed, i, sparse[i], dense[i])
			}
		}
	}
}

func TestSparseWireSizeCrossover(t *testing.T) {
	// Empty vector: 4 bytes either way is the count header.
	if got := NewSparse(1024).WireSize(); got != 4 {
		t.Fatalf("empty wire size = %d, want 4", got)
	}
	// One writer in a 1024-node machine: 12 bytes, not 4096.
	s := NewSparse(1024)
	s.Set(7, 3)
	if got := s.WireSize(); got != 12 {
		t.Fatalf("1-writer wire size = %d, want 12", got)
	}
	// Fully dense: capped at the dense encoding.
	d := NewSparse(8)
	for p := 0; p < 8; p++ {
		d.Set(p, int32(p+1))
	}
	if got := d.WireSize(); got != 32 {
		t.Fatalf("dense-8 wire size = %d, want 32", got)
	}
	// nil behaves as an empty vector.
	var nilVec *Sparse
	if nilVec.WireSize() != 4 || nilVec.Get(3) != 0 || !nilVec.Covers(nil) {
		t.Fatal("nil Sparse read methods wrong")
	}
}

func TestSparseFromRoundTrip(t *testing.T) {
	v := VC{0, 3, 0, 0, 9, 0, 1, 0}
	s := SparseFrom(v)
	if !s.Dense(len(v)).Equal(v) {
		t.Fatalf("round trip = %v, want %v", s.Dense(len(v)), v)
	}
	if s.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", s.NNZ())
	}
}

// sparseObs lists every observable of s over dimension n: components,
// NNZ, wire size and the Each enumeration.
func sparseObs(s *Sparse, n int) []int {
	obs := []int{s.NNZ(), s.WireSize()}
	for p := 0; p < n; p++ {
		obs = append(obs, int(s.Get(p)))
	}
	s.Each(func(p int, x int32) { obs = append(obs, p, int(x)) })
	return obs
}

// TestSparseSlabMatchesNewSparse drives two slab vectors and two
// NewSparse vectors through the same random Set/RaiseTo/MaxWith/Copy
// sequence, with ForceDense off and on, and checks every observable
// agrees at each step. An untouched vector carved between the two must
// stay all-zero throughout.
func TestSparseSlabMatchesNewSparse(t *testing.T) {
	defer func(old bool) { ForceDense = old }(ForceDense)
	for _, force := range []bool{false, true} {
		ForceDense = force
		for seed := int64(0); seed < 50; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := rng.Intn(12) + 2
			var sl Slab
			sa, pad, sb := sl.New(n), sl.New(n), sl.New(n)
			ra, rb := NewSparse(n), NewSparse(n)
			for step := 0; step < 80; step++ {
				p, x := rng.Intn(n), int32(rng.Intn(8))
				switch rng.Intn(5) {
				case 0:
					sa.Set(p, x)
					ra.Set(p, x)
				case 1:
					sa.RaiseTo(p, x)
					ra.RaiseTo(p, x)
				case 2:
					sb.Set(p, x)
					rb.Set(p, x)
				case 3:
					sa.MaxWith(sb)
					ra.MaxWith(rb)
				case 4: // a copy is independent of its slab original
					c := sa.Copy()
					c.Set(p, x+1)
					if !slices.Equal(sparseObs(sa, n), sparseObs(ra, n)) {
						t.Fatalf("force=%v seed %d step %d: Copy changed its original", force, seed, step)
					}
					if !slices.Equal(sparseObs(sa.Copy(), n), sparseObs(ra, n)) {
						t.Fatalf("force=%v seed %d step %d: Copy differs", force, seed, step)
					}
				}
				if !slices.Equal(sparseObs(sa, n), sparseObs(ra, n)) || !slices.Equal(sparseObs(sb, n), sparseObs(rb, n)) {
					t.Fatalf("force=%v seed %d step %d: slab %v/%v, heap %v/%v", force, seed, step, sa, sb, ra, rb)
				}
				if sa.Covers(sb) != ra.Covers(rb) || sb.Covers(sa) != rb.Covers(ra) {
					t.Fatalf("force=%v seed %d step %d: Covers differs", force, seed, step)
				}
				if pad.NNZ() != 0 || pad.Dim() != n {
					t.Fatalf("force=%v seed %d step %d: untouched neighbour is %v", force, seed, step, pad)
				}
			}
		}
	}
}

// TestSparseSlabNeighboursIsolated grows one slab vector past its two
// carved slots and deletes from it, checking its block neighbours keep
// their contents, and that carving vectors allocates per block, not per
// vector.
func TestSparseSlabNeighboursIsolated(t *testing.T) {
	var sl Slab
	a, b, c := sl.New(16), sl.New(16), sl.New(16)
	for _, s := range []*Sparse{a, b, c} {
		s.Set(1, 10)
		s.Set(3, 30)
	}
	want := sparseObs(a, 16)
	check := func(what string) {
		t.Helper()
		if !slices.Equal(sparseObs(a, 16), want) || !slices.Equal(sparseObs(c, 16), want) {
			t.Fatalf("%s changed a neighbour: a=%v c=%v", what, a, c)
		}
	}
	for p := 4; p < 12; p++ {
		b.Set(p, int32(p))
	}
	b.Set(0, 5)
	check("growing b")
	if b.NNZ() != 11 || b.Get(0) != 5 || b.Get(11) != 11 {
		t.Fatalf("grown b = %v", b)
	}
	d := sl.New(16)
	d.Set(2, 2)
	d.Set(0, 1)
	d.Set(5, 9) // third entry: reallocates d alone
	check("growing a fresh neighbour")

	var sl2 Slab
	e, f := sl2.New(16), sl2.New(16)
	e.Set(2, 7)
	e.Set(1, 6)
	f.Set(1, 3)
	f.Set(2, 4)
	e.Set(1, 0) // delete the first entry: shifts within e's own slots
	if e.NNZ() != 1 || e.Get(2) != 7 || f.Get(1) != 3 || f.Get(2) != 4 {
		t.Fatalf("delete leaked: e=%v f=%v", e, f)
	}

	if ForceDense {
		return
	}
	var sl3 Slab
	if allocs := testing.AllocsPerRun(4*slabBlock, func() { sl3.New(1024) }); allocs != 0 {
		t.Fatalf("Slab.New allocates %.2f times per vector, want per block", allocs)
	}
}
