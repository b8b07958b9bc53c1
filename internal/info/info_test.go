package info

import (
	"testing"

	"ndmesh/internal/grid"
)

func mkBox(lo, hi grid.Coord) grid.Box { return grid.NewBox(lo, hi) }

func TestAddAndHas(t *testing.T) {
	s := NewStore(10)
	b := mkBox(grid.Coord{2, 2}, grid.Coord{3, 3})
	if s.Has(1, b) {
		t.Fatal("empty store has record")
	}
	if !s.Add(1, Record{Box: b, Epoch: 1}) {
		t.Fatal("first Add returned false")
	}
	if !s.Has(1, b) || s.TotalRecords() != 1 || s.NodesWithInfo() != 1 {
		t.Fatal("record not stored")
	}
	// Duplicate add refreshes the epoch but reports no change.
	if s.Add(1, Record{Box: b, Epoch: 3}) {
		t.Fatal("duplicate Add returned true")
	}
	if got := s.At(1)[0].Epoch; got != 3 {
		t.Fatalf("epoch not refreshed: %d", got)
	}
	// An older duplicate does not downgrade.
	s.Add(1, Record{Box: b, Epoch: 2})
	if got := s.At(1)[0].Epoch; got != 3 {
		t.Fatalf("epoch downgraded: %d", got)
	}
}

func TestAddDominatedReplacement(t *testing.T) {
	s := NewStore(10)
	small := mkBox(grid.Coord{2, 2}, grid.Coord{3, 3})
	big := mkBox(grid.Coord{1, 1}, grid.Coord{4, 4})
	s.Add(5, Record{Box: small, Epoch: 1})
	// A newer record whose box contains the old one replaces it: the block
	// grew and the stale pre-growth record must not linger.
	s.Add(5, Record{Box: big, Epoch: 2})
	if s.Has(5, small) {
		t.Fatal("dominated stale record survived")
	}
	if !s.Has(5, big) || s.TotalRecords() != 1 {
		t.Fatal("new record missing")
	}

	// A newer record does NOT replace a contained record with a newer or
	// equal epoch (two genuinely distinct blocks).
	s2 := NewStore(10)
	s2.Add(5, Record{Box: small, Epoch: 7})
	s2.Add(5, Record{Box: big, Epoch: 7})
	if !s2.Has(5, small) || !s2.Has(5, big) {
		t.Fatal("same-epoch contained record must survive")
	}
}

func TestAddDistinctBlocks(t *testing.T) {
	s := NewStore(10)
	a := mkBox(grid.Coord{1, 1}, grid.Coord{2, 2})
	b := mkBox(grid.Coord{5, 5}, grid.Coord{6, 6})
	s.Add(0, Record{Box: a, Epoch: 1})
	s.Add(0, Record{Box: b, Epoch: 2})
	if !s.Has(0, a) || !s.Has(0, b) || s.TotalRecords() != 2 {
		t.Fatal("distinct records must coexist")
	}
}

func TestRemoveEpochGuard(t *testing.T) {
	s := NewStore(10)
	b := mkBox(grid.Coord{2, 2}, grid.Coord{3, 3})
	s.Add(1, Record{Box: b, Epoch: 5})
	// A cancellation with minEpoch <= record epoch must not remove it
	// (the record is newer than the construction being cancelled).
	if s.Remove(1, b, 5) {
		t.Fatal("Remove deleted a same-epoch record")
	}
	if !s.Has(1, b) {
		t.Fatal("record vanished")
	}
	// A cancellation strictly newer removes it.
	if !s.Remove(1, b, 6) {
		t.Fatal("Remove failed")
	}
	if s.Has(1, b) || s.TotalRecords() != 0 {
		t.Fatal("record not removed")
	}
	// Removing again reports false.
	if s.Remove(1, b, 6) {
		t.Fatal("double remove returned true")
	}
}

func TestClear(t *testing.T) {
	s := NewStore(4)
	b := mkBox(grid.Coord{0, 0}, grid.Coord{1, 1})
	s.Add(0, Record{Box: b, Epoch: 1})
	s.Add(1, Record{Box: b, Epoch: 1})
	s.Clear()
	if s.TotalRecords() != 0 || s.NodesWithInfo() != 0 || len(s.At(0)) != 0 {
		t.Fatal("Clear incomplete")
	}
}

func TestTotalAcrossNodes(t *testing.T) {
	s := NewStore(8)
	b := mkBox(grid.Coord{0, 0}, grid.Coord{1, 1})
	for id := 0; id < 5; id++ {
		s.Add(grid.NodeID(id), Record{Box: b, Epoch: 1})
	}
	if s.TotalRecords() != 5 || s.NodesWithInfo() != 5 {
		t.Fatalf("totals wrong: %d records, %d nodes", s.TotalRecords(), s.NodesWithInfo())
	}
}

// TestVersionTracksRecordChanges: Version moves exactly when the boxes a
// router reads change — a new record, a removal, a Clear — and stays put
// on an epoch refresh or a refused Remove, so memoized routing decisions
// are invalidated by every real change and only by those.
func TestVersionTracksRecordChanges(t *testing.T) {
	s := NewStore(10)
	b := mkBox(grid.Coord{2, 2}, grid.Coord{3, 3})
	steps := []struct {
		name string
		op   func()
		bump bool
	}{
		{"add", func() { s.Add(1, Record{Box: b, Epoch: 1}) }, true},
		{"epoch refresh", func() { s.Add(1, Record{Box: b, Epoch: 5}) }, false},
		{"guarded remove", func() { s.Remove(1, b, 5) }, false},
		{"remove", func() { s.Remove(1, b, 6) }, true},
		{"remove absent", func() { s.Remove(1, b, 6) }, false},
		{"clear", func() { s.Clear() }, true},
		{"clear empty", func() { s.Clear() }, true},
	}
	for _, st := range steps {
		before := s.Version()
		st.op()
		if bumped := s.Version() != before; bumped != st.bump {
			t.Errorf("%s: version bumped=%v, want %v", st.name, bumped, st.bump)
		}
	}
}
