// Package info implements the limited-global fault-information store: the
// per-node block records that the identification and boundary constructions
// deposit, and that Algorithm 3's routing decision consults.
//
// This is the heart of the "limited global information" idea: instead of a
// routing table at every node (global information) or nothing (local
// information), only the nodes on a block's frame and boundary walls hold a
// record of that block. TotalRecords is therefore the memory-footprint
// metric of experiment E16.
package info

import (
	"ndmesh/internal/grid"
)

// Record is one block's information as stored at a node: the block's
// interior box plus the epoch of the construction that deposited it.
// Epochs order constructions so that a stale record (from before a block
// grew or shrank) can never overwrite a fresher one.
type Record struct {
	Box   grid.Box
	Epoch uint32
}

// Store holds the records of every node. The zero value is not usable; use
// NewStore.
type Store struct {
	recs    [][]Record
	total   int
	version uint64
}

// NewStore builds an empty store for a mesh with n nodes.
func NewStore(n int) *Store {
	return &Store{recs: make([][]Record, n)}
}

// Version increments on every change to the records a router reads: an
// Add or Remove that returns true, and every Clear. Like mesh.Version it
// never rewinds, so a routing decision memoized against one version cannot
// survive any change to the store. An Add that only refreshes an epoch
// leaves it unchanged (routers read boxes, not epochs).
func (s *Store) Version() uint64 { return s.version }

// At returns the records held by node id. The returned slice is owned by
// the store; callers must not mutate it.
func (s *Store) At(id grid.NodeID) []Record { return s.recs[id] }

// Has reports whether node id holds a record with exactly this box.
func (s *Store) Has(id grid.NodeID, box grid.Box) bool {
	for _, r := range s.recs[id] {
		if r.Box.Equal(box) {
			return true
		}
	}
	return false
}

// Add deposits a record at node id, copying the box (the store owns its
// record storage; callers keep ownership of the box they pass). If the node
// already holds a record with the same box, the epoch is refreshed to the
// larger value and Add returns false (nothing new). If the node holds
// records whose boxes are strictly contained in the new box with an older
// epoch — information from before the block grew — those records are
// replaced (the paper's "propagation may also incur a deletion of out of
// date boundaries"). Returns true if the node's information actually
// changed.
//
// Record slots freed by Clear, Remove or dominated-record replacement keep
// their box arrays in the slice's spare capacity and are reused by later
// deposits, so a store cycling through trials allocates nothing once warm.
func (s *Store) Add(id grid.NodeID, rec Record) bool {
	rs := s.recs[id]
	for i := range rs {
		if rs[i].Box.Equal(rec.Box) {
			if rec.Epoch > rs[i].Epoch {
				rs[i].Epoch = rec.Epoch
			}
			return false
		}
	}
	// Drop dominated stale records: an older record whose box lies inside
	// the new one describes the same obstacle before it grew. Compaction
	// swaps (rather than overwrites) so every dropped slot keeps a unique
	// box header in the spare capacity for reuse.
	kept := 0
	for i := 0; i < len(rs); i++ {
		if rs[i].Epoch < rec.Epoch && contained(rs[i].Box, rec.Box) {
			s.total--
			continue
		}
		if kept != i {
			rs[kept], rs[i] = rs[i], rs[kept]
		}
		kept++
	}
	rs = rs[:kept]
	if kept < cap(rs) {
		rs = rs[:kept+1]
		rs[kept].Box.Set(rec.Box)
		rs[kept].Epoch = rec.Epoch
	} else {
		rs = append(rs, Record{Box: rec.Box.Clone(), Epoch: rec.Epoch})
	}
	s.recs[id] = rs
	s.total++
	s.version++
	return true
}

// Remove deletes the record with the given box from node id, returning
// whether a record was removed. Removal is epoch-guarded: records deposited
// at or after minEpoch survive (a cancellation launched for an old
// construction must not erase newer information). The freed slot's box
// arrays stay in the slice's spare capacity for Add to reuse.
func (s *Store) Remove(id grid.NodeID, box grid.Box, minEpoch uint32) bool {
	rs := s.recs[id]
	for i := range rs {
		if rs[i].Box.Equal(box) && rs[i].Epoch < minEpoch {
			rs[i], rs[len(rs)-1] = rs[len(rs)-1], rs[i]
			s.recs[id] = rs[:len(rs)-1]
			s.total--
			s.version++
			return true
		}
	}
	return false
}

// TotalRecords returns the number of records across all nodes: the memory
// metric of the limited-information model (compare N*F for global tables).
func (s *Store) TotalRecords() int { return s.total }

// NodesWithInfo returns how many nodes hold at least one record.
func (s *Store) NodesWithInfo() int {
	n := 0
	for _, rs := range s.recs {
		if len(rs) > 0 {
			n++
		}
	}
	return n
}

// Clear removes all records. Per-node slice capacity is retained so a
// cleared store can be refilled without reallocating (trial reuse).
func (s *Store) Clear() {
	for i := range s.recs {
		if s.recs[i] != nil {
			s.recs[i] = s.recs[i][:0]
		}
	}
	s.total = 0
	s.version++
}

// contained reports whether inner lies entirely within outer.
func contained(inner, outer grid.Box) bool {
	for i := range inner.Lo {
		if inner.Lo[i] < outer.Lo[i] || inner.Hi[i] > outer.Hi[i] {
			return false
		}
	}
	return true
}
