package grid

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 3); err == nil {
		t.Fatal("0 rows accepted")
	}
	if _, err := New(3, -1); err == nil {
		t.Fatal("negative cols accepted")
	}
	g, err := New(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows() != 3 || g.Cols() != 4 || g.Size() != 12 {
		t.Fatalf("geometry %d×%d size %d", g.Rows(), g.Cols(), g.Size())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustNew(0, 0)
}

func TestRankCoordRoundTrip(t *testing.T) {
	g := MustNew(3, 5)
	for rank := 0; rank < g.Size(); rank++ {
		r, c := g.Coord(rank)
		if got := g.Rank(r, c); got != rank {
			t.Fatalf("round trip rank %d -> (%d,%d) -> %d", rank, r, c, got)
		}
	}
}

func TestRankWraps(t *testing.T) {
	g := MustNew(3, 3)
	if g.Rank(-1, 0) != g.Rank(2, 0) {
		t.Fatal("row wrap up")
	}
	if g.Rank(3, 1) != g.Rank(0, 1) {
		t.Fatal("row wrap down")
	}
	if g.Rank(1, -1) != g.Rank(1, 2) {
		t.Fatal("col wrap left")
	}
	if g.Rank(1, 5) != g.Rank(1, 2) {
		t.Fatal("col wrap right (multiple)")
	}
	if g.Rank(-4, -4) != g.Rank(2, 2) {
		t.Fatal("deep negative wrap")
	}
}

func TestCoordOutOfRangePanics(t *testing.T) {
	g := MustNew(2, 2)
	for _, bad := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Coord(%d) did not panic", bad)
				}
			}()
			g.Coord(bad)
		}()
	}
}

func TestMoore5NeighborhoodOn4x4(t *testing.T) {
	// Fig 1 of the paper: 4×4 grid, neighbourhood of cell (1,1) is the
	// center plus N, S, E, W.
	g := MustNew(4, 4)
	center := g.Rank(1, 1)
	nb := g.Neighborhood(center)
	want := []int{
		g.Rank(0, 1), // North
		g.Rank(1, 0), // West
		center,
		g.Rank(1, 2), // East
		g.Rank(2, 1), // South
	}
	wantSorted := append([]int(nil), want...)
	sortInts(wantSorted)
	if !reflect.DeepEqual(nb, wantSorted) {
		t.Fatalf("neighbourhood %v want %v", nb, wantSorted)
	}
	if g.SubPopulationSize(center) != 5 {
		t.Fatalf("s = %d", g.SubPopulationSize(center))
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}

func TestNeighborhoodWrapsToroidally(t *testing.T) {
	g := MustNew(4, 4)
	corner := g.Rank(0, 0)
	nb := g.Neighborhood(corner)
	want := []int{g.Rank(0, 0), g.Rank(3, 0), g.Rank(1, 0), g.Rank(0, 3), g.Rank(0, 1)}
	sortInts(want)
	if !reflect.DeepEqual(nb, want) {
		t.Fatalf("corner neighbourhood %v want %v", nb, want)
	}
}

func TestNeighborhoodDedupOn2x2(t *testing.T) {
	// On a 2×2 torus, North and South of a cell coincide, as do East and
	// West, so the Moore5 pattern yields only 4 distinct cells... wait:
	// North of (0,0) is (1,0) and South is (1,0) as well; East and West
	// are both (0,1). Distinct cells: self, (1,0), (0,1) = 3.
	g := MustNew(2, 2)
	nb := g.Neighborhood(0)
	if len(nb) != 3 {
		t.Fatalf("2×2 sub-population size %d want 3 (%v)", len(nb), nb)
	}
}

func TestNeighborhoodOn1x1(t *testing.T) {
	g := MustNew(1, 1)
	nb := g.Neighborhood(0)
	if !reflect.DeepEqual(nb, []int{0}) {
		t.Fatalf("1×1 neighbourhood %v", nb)
	}
}

func TestInfluenceSymmetricEqualsNeighborhood(t *testing.T) {
	g := MustNew(4, 4)
	for rank := 0; rank < g.Size(); rank++ {
		if !reflect.DeepEqual(g.Neighborhood(rank), g.Influence(rank)) {
			t.Fatalf("rank %d: symmetric pattern should have Influence == Neighborhood", rank)
		}
	}
}

func TestInfluenceAsymmetricPattern(t *testing.T) {
	g := MustNew(3, 3)
	// Only the Eastern neighbour: cell c's neighbourhood is {c+E}.
	if err := g.SetPattern([]Offset{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	// Neighborhood(4) = {rank(1,2)=5}; Influence(4) = cells that see 4 =
	// {rank(1,0)=3}.
	if nb := g.Neighborhood(4); !reflect.DeepEqual(nb, []int{5}) {
		t.Fatalf("neighbourhood %v", nb)
	}
	if in := g.Influence(4); !reflect.DeepEqual(in, []int{3}) {
		t.Fatalf("influence %v", in)
	}
}

func TestMutualityProperty(t *testing.T) {
	// For every pattern, b ∈ Neighborhood(a) ⟺ a ∈ Influence(b).
	f := func(rowsRaw, colsRaw uint8, patternPick uint8) bool {
		rows := int(rowsRaw%5) + 1
		cols := int(colsRaw%5) + 1
		g := MustNew(rows, cols)
		patterns := [][]Offset{Moore5, Moore9, Ring4, {{0, 2}, {1, 1}}}
		if err := g.SetPattern(patterns[int(patternPick)%len(patterns)]); err != nil {
			return false
		}
		for a := 0; a < g.Size(); a++ {
			for _, b := range g.Neighborhood(a) {
				found := false
				for _, x := range g.Influence(b) {
					if x == a {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSetPatternValidationAndCopy(t *testing.T) {
	g := MustNew(3, 3)
	if err := g.SetPattern(nil); err == nil {
		t.Fatal("empty pattern accepted")
	}
	p := []Offset{{0, 0}, {1, 1}}
	if err := g.SetPattern(p); err != nil {
		t.Fatal(err)
	}
	p[0] = Offset{5, 5} // mutate caller's slice
	got := g.Pattern()
	if got[0] != (Offset{0, 0}) {
		t.Fatal("SetPattern did not copy the pattern")
	}
	got[1] = Offset{9, 9}
	if g.Pattern()[1] != (Offset{1, 1}) {
		t.Fatal("Pattern did not return a copy")
	}
}

func TestMoore9AndRing4(t *testing.T) {
	g := MustNew(5, 5)
	if err := g.SetPattern(Moore9); err != nil {
		t.Fatal(err)
	}
	if got := g.SubPopulationSize(12); got != 9 {
		t.Fatalf("Moore9 size %d", got)
	}
	if err := g.SetPattern(Ring4); err != nil {
		t.Fatal(err)
	}
	nb := g.Neighborhood(12)
	if len(nb) != 4 {
		t.Fatalf("Ring4 size %d", len(nb))
	}
	for _, r := range nb {
		if r == 12 {
			t.Fatal("Ring4 must exclude center")
		}
	}
}

func TestResize(t *testing.T) {
	g := MustNew(2, 2)
	if err := g.Resize(4, 4); err != nil {
		t.Fatal(err)
	}
	if g.Size() != 16 {
		t.Fatalf("size after resize %d", g.Size())
	}
	if got := g.SubPopulationSize(5); got != 5 {
		t.Fatalf("post-resize s = %d", got)
	}
	if err := g.Resize(0, 4); err == nil {
		t.Fatal("bad resize accepted")
	}
}

func TestRenderFig1(t *testing.T) {
	g := MustNew(4, 4)
	out := g.Render(g.Rank(1, 1))
	if !strings.Contains(out, "4×4 toroidal grid") {
		t.Fatalf("missing header: %q", out)
	}
	if strings.Count(out, " C ") != 1 {
		t.Fatal("exactly one center expected")
	}
	if strings.Count(out, " N ") != 4 {
		t.Fatalf("4 neighbours expected, got %d", strings.Count(out, " N "))
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header + 4 rows
		t.Fatalf("render has %d lines", len(lines))
	}
}

func TestConcurrentAccess(t *testing.T) {
	// Neighborhood readers racing with SetPattern/Resize writers must not
	// trip the race detector or panic.
	g := MustNew(4, 4)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = g.Neighborhood(0)
				_ = g.Influence(3)
				_ = g.Size()
			}
		}()
	}
	for i := 0; i < 100; i++ {
		if err := g.SetPattern(Moore9); err != nil {
			t.Error(err)
		}
		if err := g.SetPattern(Moore5); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestNeighborhoodOutOfRangePanics(t *testing.T) {
	g := MustNew(2, 2)
	for name, f := range map[string]func(){
		"nb":  func() { g.Neighborhood(4) },
		"inf": func() { g.Influence(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestDiameter pins the influence-graph diameter the exchange loop's stop
// consensus waits out: one hop per exchange, wrapping toroidally.
func TestDiameter(t *testing.T) {
	for _, tc := range []struct {
		rows, cols int
		pattern    []Offset
		want       int
	}{
		{1, 1, nil, 0},
		{2, 2, nil, 2},
		{3, 3, nil, 2},
		{4, 4, nil, 4},
		{3, 3, Moore9, 1},
		{4, 4, Moore9, 2},
	} {
		g := MustNew(tc.rows, tc.cols)
		if tc.pattern != nil {
			if err := g.SetPattern(tc.pattern); err != nil {
				t.Fatal(err)
			}
		}
		if got := g.Diameter(); got != tc.want {
			t.Errorf("%dx%d pattern %v: diameter %d, want %d", tc.rows, tc.cols, tc.pattern, got, tc.want)
		}
	}
}
