package vc

import (
	"fmt"
	"sort"
)

// ForceDense, when set before simulation starts, makes every Sparse use a
// dense backing array internally. Semantics and wire sizes are identical in
// both modes (WireSize is computed from the logical contents, not the
// representation), so a full simulation run must produce byte-identical
// results with the flag on or off. Tests flip it to validate the sparse
// algebra against the dense one end to end; it is not safe to change
// mid-run.
var ForceDense = false

// Sparse is a vector timestamp over n processors that stores only its
// non-zero components, as one slice of (proc, value) pairs sorted by proc.
// Per-page vectors in the coherence protocols are touched by O(active
// writers) processors, not O(n), so at large machine sizes this makes
// write-notice records and piggybacked timestamps cost O(writers).
//
// The zero value is not usable; construct with NewSparse, SparseFrom or
// Slab.New. Read methods (Get, Covers, NNZ, WireSize, Dense) tolerate a
// nil receiver, which behaves as an all-zero vector of unknown dimension.
type Sparse struct {
	n     int     // dimension (number of processors)
	ents  []entry // non-zero components, sorted by proc
	dense VC      // non-nil when ForceDense was set at creation
}

// entry is one non-zero component: processor p has value x.
type entry struct{ p, x int32 }

// NewSparse returns an all-zero sparse vector for n processors.
func NewSparse(n int) *Sparse {
	s := &Sparse{n: n}
	if ForceDense {
		s.dense = New(n)
	}
	return s
}

// slabBlock is how many vectors a Slab carves from one allocation. Larger
// blocks cut allocations further but strand more memory in partly used
// blocks on nodes that touch few pages.
const slabBlock = 32

// Slab hands out long-lived vectors (per-page protocol state) carved from
// blocks of slabBlock headers plus room for two entries each, so first
// touch of a page costs O(1) allocations per block instead of per vector.
// Each vector's entries are a full slice expression of its two slots: a
// third entry reallocates through append instead of overrunning the next
// vector. A Slab is not safe for concurrent use; the zero value is ready.
type Slab struct {
	hdrs []Sparse
	ents []entry
}

// New returns an all-zero vector for n processors, like NewSparse.
func (sl *Slab) New(n int) *Sparse {
	if len(sl.hdrs) == 0 {
		sl.hdrs = make([]Sparse, slabBlock)
		sl.ents = make([]entry, 2*slabBlock)
	}
	s := &sl.hdrs[0]
	s.n, s.ents = n, sl.ents[:0:2]
	if ForceDense {
		s.dense = New(n)
	}
	sl.hdrs, sl.ents = sl.hdrs[1:], sl.ents[2:]
	return s
}

// SparseFrom returns a sparse copy of a dense vector.
func SparseFrom(v VC) *Sparse {
	s := NewSparse(len(v))
	if s.dense != nil {
		copy(s.dense, v)
		return s
	}
	nnz := 0
	for _, x := range v {
		if x != 0 {
			nnz++
		}
	}
	s.ents = make([]entry, 0, nnz)
	for i, x := range v {
		if x != 0 {
			s.ents = append(s.ents, entry{int32(i), x})
		}
	}
	return s
}

// Dim returns the dimension the vector was created with (0 for nil).
func (s *Sparse) Dim() int {
	if s == nil {
		return 0
	}
	return s.n
}

// search returns the index of the first entry with proc >= p.
func (s *Sparse) search(p int32) int {
	return sort.Search(len(s.ents), func(i int) bool { return s.ents[i].p >= p })
}

// Get returns component p (0 when absent or s is nil).
func (s *Sparse) Get(p int) int32 {
	if s == nil {
		return 0
	}
	if s.dense != nil {
		return s.dense[p]
	}
	if i := s.search(int32(p)); i < len(s.ents) && s.ents[i].p == int32(p) {
		return s.ents[i].x
	}
	return 0
}

// Set assigns component p. Setting zero removes the entry.
func (s *Sparse) Set(p int, x int32) {
	if s.dense != nil {
		s.dense[p] = x
		return
	}
	pp := int32(p)
	i := s.search(pp)
	if i < len(s.ents) && s.ents[i].p == pp {
		if x == 0 {
			s.ents = append(s.ents[:i], s.ents[i+1:]...)
			return
		}
		s.ents[i].x = x
		return
	}
	if x == 0 {
		return
	}
	s.ents = append(s.ents, entry{})
	copy(s.ents[i+1:], s.ents[i:])
	s.ents[i] = entry{pp, x}
}

// RaiseTo raises component p to at least x.
func (s *Sparse) RaiseTo(p int, x int32) {
	if s.Get(p) < x {
		s.Set(p, x)
	}
}

// MaxWith raises each component of s to at least the corresponding
// component of o (which may be nil).
func (s *Sparse) MaxWith(o *Sparse) {
	if o == nil {
		return
	}
	if o.dense != nil {
		for p, x := range o.dense {
			if x != 0 {
				s.RaiseTo(p, x)
			}
		}
		return
	}
	for _, e := range o.ents {
		s.RaiseTo(int(e.p), e.x)
	}
}

// Covers reports whether s[i] >= o[i] for all i. Both sides may be nil.
func (s *Sparse) Covers(o *Sparse) bool {
	if o == nil {
		return true
	}
	if o.dense != nil {
		for p, x := range o.dense {
			if x != 0 && s.Get(p) < x {
				return false
			}
		}
		return true
	}
	for _, e := range o.ents {
		if s.Get(int(e.p)) < e.x {
			return false
		}
	}
	return true
}

// Equal reports component-wise equality.
func (s *Sparse) Equal(o *Sparse) bool {
	return s.Covers(o) && o.Covers(s)
}

// Copy returns an independent copy (nil copies to nil).
func (s *Sparse) Copy() *Sparse {
	if s == nil {
		return nil
	}
	c := &Sparse{n: s.n}
	if s.dense != nil {
		c.dense = s.dense.Copy()
		return c
	}
	c.ents = append([]entry(nil), s.ents...)
	return c
}

// NNZ returns the number of non-zero components.
func (s *Sparse) NNZ() int {
	if s == nil {
		return 0
	}
	if s.dense != nil {
		nnz := 0
		for _, x := range s.dense {
			if x != 0 {
				nnz++
			}
		}
		return nnz
	}
	return len(s.ents)
}

// Dense materializes the vector as a dense VC of dimension n.
func (s *Sparse) Dense(n int) VC {
	v := New(n)
	if s == nil {
		return v
	}
	if s.dense != nil {
		copy(v, s.dense)
		return v
	}
	for _, e := range s.ents {
		v[e.p] = e.x
	}
	return v
}

// Each calls f for every non-zero component in increasing proc order.
func (s *Sparse) Each(f func(p int, x int32)) {
	if s == nil {
		return
	}
	if s.dense != nil {
		for p, x := range s.dense {
			if x != 0 {
				f(p, x)
			}
		}
		return
	}
	for _, e := range s.ents {
		f(int(e.p), e.x)
	}
}

// WireSize is the encoded size of the vector in bytes: the cheaper of the
// dense encoding (4 bytes per component) and a sparse (proc, value) pair
// list with a 4-byte count. The formula depends only on the logical
// contents, never the host representation, so simulated time is identical
// under ForceDense.
func (s *Sparse) WireSize() int {
	if s == nil {
		return 4
	}
	return SparseWireSize(s.n, s.NNZ())
}

// SparseWireSize is the wire-size model shared by every vector-timestamp
// encoding: min(dense, pair-list) for dimension n with nnz non-zero
// components.
func SparseWireSize(n, nnz int) int {
	dense := 4 * n
	pairs := 4 + 8*nnz
	if pairs < dense {
		return pairs
	}
	return dense
}

func (s *Sparse) String() string {
	if s == nil {
		return "{}"
	}
	out := "{"
	first := true
	s.Each(func(p int, x int32) {
		if !first {
			out += " "
		}
		first = false
		out += fmt.Sprintf("%d:%d", p, x)
	})
	return out + "}"
}
