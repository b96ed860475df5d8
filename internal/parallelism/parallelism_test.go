package parallelism

import (
	"testing"
	"testing/quick"
)

func TestWorkersProduct(t *testing.T) {
	s := Strategy{MP: 4, DP: 3, PP: 2}
	if s.Workers() != 24 {
		t.Fatalf("Workers() = %d, want 24", s.Workers())
	}
}

func TestStringNotation(t *testing.T) {
	s := Strategy{MP: 2, DP: 5, PP: 2}
	if got := s.String(); got != "MP(2)-DP(5)-PP(2)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestRankRoundTrip(t *testing.T) {
	s := Strategy{MP: 4, DP: 3, PP: 2}
	seen := make(map[int]bool)
	for dp := 0; dp < s.DP; dp++ {
		for pp := 0; pp < s.PP; pp++ {
			for mp := 0; mp < s.MP; mp++ {
				w := Worker{MP: mp, DP: dp, PP: pp}
				r := s.Rank(w)
				if r < 0 || r >= s.Workers() {
					t.Fatalf("Rank(%v) = %d out of range", w, r)
				}
				if seen[r] {
					t.Fatalf("Rank(%v) = %d duplicated", w, r)
				}
				seen[r] = true
				if got := s.Worker(r); got != w {
					t.Fatalf("Worker(Rank(%v)) = %v", w, got)
				}
			}
		}
	}
}

func TestRankMPContiguous(t *testing.T) {
	// FRED's placement relies on MP peers being consecutive ranks.
	s := Strategy{MP: 5, DP: 2, PP: 2}
	for _, g := range s.MPGroups() {
		for i := 1; i < len(g); i++ {
			if g[i] != g[i-1]+1 {
				t.Fatalf("MP group not contiguous: %v", g)
			}
		}
	}
}

func TestWorkerPanicsOutOfRange(t *testing.T) {
	s := Strategy{MP: 2, DP: 2, PP: 2}
	defer func() {
		if recover() == nil {
			t.Fatal("Worker(8) did not panic")
		}
	}()
	s.Worker(8)
}

func TestFigure1Groups(t *testing.T) {
	// The paper's running example: MP(4)-DP(3)-PP(2).
	s := Strategy{MP: 4, DP: 3, PP: 2}
	if got := len(s.MPGroups()); got != 6 {
		t.Errorf("MP groups = %d, want 6 (paper: six concurrent MP comms)", got)
	}
	if got := len(s.DPGroups()); got != 8 {
		t.Errorf("DP groups = %d, want 8 (paper: eight concurrent All-Reduces)", got)
	}
	if got := len(s.PPGroups()); got != 12 {
		t.Errorf("PP groups = %d, want 12 (paper: twelve PP comms)", got)
	}
	// Workers 000,100,200,300 share one MP group (Figure 1).
	g0 := s.MPGroups()[0]
	for i, r := range g0 {
		w := s.Worker(r)
		if w.MP != i || w.DP != 0 || w.PP != 0 {
			t.Errorf("first MP group member %d = %v", i, w)
		}
	}
}

func TestGroupSizes(t *testing.T) {
	s := Strategy{MP: 3, DP: 4, PP: 2}
	for _, g := range s.MPGroups() {
		if len(g) != 3 {
			t.Fatalf("MP group size %d, want 3", len(g))
		}
	}
	for _, g := range s.DPGroups() {
		if len(g) != 4 {
			t.Fatalf("DP group size %d, want 4", len(g))
		}
	}
	for _, g := range s.PPGroups() {
		if len(g) != 2 {
			t.Fatalf("PP group size %d, want 2", len(g))
		}
	}
}

func TestGroupsPartitionWorkers(t *testing.T) {
	s := Strategy{MP: 2, DP: 5, PP: 2}
	for name, groups := range map[string][][]int{
		"MP": s.MPGroups(), "DP": s.DPGroups(), "PP": s.PPGroups(),
	} {
		seen := make(map[int]bool)
		for _, g := range groups {
			for _, r := range g {
				if seen[r] {
					t.Fatalf("%s groups: rank %d appears twice", name, r)
				}
				seen[r] = true
			}
		}
		if len(seen) != s.Workers() {
			t.Fatalf("%s groups cover %d ranks, want %d", name, len(seen), s.Workers())
		}
	}
}

func TestEnumerateExact20(t *testing.T) {
	got := EnumerateExact(20)
	// d(20)=6 divisors; number of ordered triples with product 20 is 18.
	if len(got) != 18 {
		t.Fatalf("EnumerateExact(20) returned %d strategies, want 18", len(got))
	}
	for _, s := range got {
		if s.Workers() != 20 {
			t.Fatalf("strategy %v has %d workers", s, s.Workers())
		}
	}
}

func TestPropertyRankBijection(t *testing.T) {
	f := func(a, b, c uint8) bool {
		s := Strategy{MP: int(a%5) + 1, DP: int(b%5) + 1, PP: int(c%5) + 1}
		seen := make(map[int]bool)
		for r := 0; r < s.Workers(); r++ {
			w := s.Worker(r)
			if s.Rank(w) != r {
				return false
			}
			if seen[r] {
				return false
			}
			seen[r] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyGroupMembersShareCoordinates(t *testing.T) {
	f := func(a, b, c uint8) bool {
		s := Strategy{MP: int(a%4) + 1, DP: int(b%4) + 1, PP: int(c%4) + 1}
		for _, g := range s.MPGroups() {
			w0 := s.Worker(g[0])
			for _, r := range g {
				w := s.Worker(r)
				if w.DP != w0.DP || w.PP != w0.PP {
					return false
				}
			}
		}
		for _, g := range s.DPGroups() {
			w0 := s.Worker(g[0])
			for _, r := range g {
				w := s.Worker(r)
				if w.MP != w0.MP || w.PP != w0.PP {
					return false
				}
			}
		}
		for _, g := range s.PPGroups() {
			w0 := s.Worker(g[0])
			for i, r := range g {
				w := s.Worker(r)
				if w.MP != w0.MP || w.DP != w0.DP || w.PP != i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
