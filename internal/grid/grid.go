// Package grid implements the toroidal cellular topology of the
// Lipizzaner/Mustangs training scheme: a Rows×Cols wrap-around grid in
// which every cell hosts one GAN (the "center") and trains against the
// sub-population formed by its neighbourhood.
//
// Following the paper's new `grid` class, the topology is dynamic: the
// neighbourhood pattern and even the grid dimensions can be changed while
// training runs, enabling experiments with different communication
// patterns. All methods are safe for concurrent use.
package grid

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Offset is a relative (row, col) displacement defining one member of a
// neighbourhood pattern.
type Offset struct {
	DRow, DCol int
}

// Predefined neighbourhood patterns. Moore5 is the paper's five-cell
// neighbourhood: the cell itself plus West, North, East and South (Fig 1).
var (
	Moore5 = []Offset{{0, 0}, {-1, 0}, {0, -1}, {0, 1}, {1, 0}}
	// Moore9 is the full 3×3 Moore neighbourhood including diagonals.
	Moore9 = []Offset{
		{-1, -1}, {-1, 0}, {-1, 1},
		{0, -1}, {0, 0}, {0, 1},
		{1, -1}, {1, 0}, {1, 1},
	}
	// Ring4 excludes the center: only the four cardinal neighbours.
	Ring4 = []Offset{{-1, 0}, {0, -1}, {0, 1}, {1, 0}}
)

// Grid is a toroidal cellular topology with a mutable neighbourhood
// pattern. Cell ranks are row-major: rank = row*Cols + col.
type Grid struct {
	mu      sync.RWMutex
	rows    int
	cols    int
	pattern []Offset
}

// New returns a rows×cols toroidal grid with the Moore5 pattern.
func New(rows, cols int) (*Grid, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("grid: dimensions must be positive, got %d×%d", rows, cols)
	}
	g := &Grid{rows: rows, cols: cols}
	g.pattern = append(g.pattern, Moore5...)
	return g, nil
}

// MustNew is New that panics on error, for tests and fixed-size callers.
func MustNew(rows, cols int) *Grid {
	g, err := New(rows, cols)
	if err != nil {
		panic(err)
	}
	return g
}

// Rows returns the current number of grid rows.
func (g *Grid) Rows() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.rows
}

// Cols returns the current number of grid columns.
func (g *Grid) Cols() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.cols
}

// Size returns the number of cells.
func (g *Grid) Size() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.rows * g.cols
}

// Pattern returns a copy of the current neighbourhood pattern.
func (g *Grid) Pattern() []Offset {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]Offset, len(g.pattern))
	copy(out, g.pattern)
	return out
}

// SetPattern replaces the neighbourhood pattern, enabling the dynamic
// neighbourhood experiments the paper's grid class was designed for.
func (g *Grid) SetPattern(p []Offset) error {
	if len(p) == 0 {
		return fmt.Errorf("grid: empty neighbourhood pattern")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.pattern = append(g.pattern[:0:0], p...)
	return nil
}

// Resize changes the grid dimensions. Existing ranks are reinterpreted in
// the new geometry; callers coordinate the corresponding population moves.
func (g *Grid) Resize(rows, cols int) error {
	if rows <= 0 || cols <= 0 {
		return fmt.Errorf("grid: dimensions must be positive, got %d×%d", rows, cols)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.rows, g.cols = rows, cols
	return nil
}

// wrap reduces v modulo n into [0, n).
func wrap(v, n int) int {
	v %= n
	if v < 0 {
		v += n
	}
	return v
}

// Rank returns the row-major rank of the (possibly out-of-range) toroidal
// coordinate (row, col).
func (g *Grid) Rank(row, col int) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return wrap(row, g.rows)*g.cols + wrap(col, g.cols)
}

// Coord returns the (row, col) coordinate of rank.
func (g *Grid) Coord(rank int) (row, col int) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if rank < 0 || rank >= g.rows*g.cols {
		panic(fmt.Sprintf("grid: rank %d out of range [0,%d)", rank, g.rows*g.cols))
	}
	return rank / g.cols, rank % g.cols
}

// Neighborhood returns the sorted, de-duplicated ranks of the cells in
// rank's neighbourhood under the current pattern. On small grids several
// offsets may wrap onto the same cell; duplicates are removed, so the
// effective sub-population size s may be smaller than the pattern size
// (e.g. s=5 patterns give s=4 distinct cells on a 2×2 grid).
func (g *Grid) Neighborhood(rank int) []int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if rank < 0 || rank >= g.rows*g.cols {
		panic(fmt.Sprintf("grid: rank %d out of range [0,%d)", rank, g.rows*g.cols))
	}
	row, col := rank/g.cols, rank%g.cols
	seen := make(map[int]struct{}, len(g.pattern))
	out := make([]int, 0, len(g.pattern))
	for _, off := range g.pattern {
		r := wrap(row+off.DRow, g.rows)*g.cols + wrap(col+off.DCol, g.cols)
		if _, dup := seen[r]; !dup {
			seen[r] = struct{}{}
			out = append(out, r)
		}
	}
	sort.Ints(out)
	return out
}

// Influence returns the sorted ranks of cells whose neighbourhoods contain
// rank — i.e. the cells that receive rank's center updates through the
// overlapping-neighbourhood communication of §II-B. For symmetric patterns
// this equals Neighborhood(rank).
func (g *Grid) Influence(rank int) []int {
	g.mu.RLock()
	pattern := append([]Offset(nil), g.pattern...)
	rows, cols := g.rows, g.cols
	g.mu.RUnlock()
	if rank < 0 || rank >= rows*cols {
		panic(fmt.Sprintf("grid: rank %d out of range [0,%d)", rank, rows*cols))
	}
	row, col := rank/cols, rank%cols
	seen := make(map[int]struct{})
	var out []int
	for _, off := range pattern {
		// Cell c sees rank iff c + off == rank, i.e. c = rank - off.
		r := wrap(row-off.DRow, rows)*cols + wrap(col-off.DCol, cols)
		if _, dup := seen[r]; !dup {
			seen[r] = struct{}{}
			out = append(out, r)
		}
	}
	sort.Ints(out)
	return out
}

// Diameter returns the longest shortest path between two cells along
// influence edges: the number of exchanges a cell's news needs to reach
// every other cell, one influence set per exchange. The torus and the
// pattern are translation invariant, so every cell has the same
// eccentricity and one search from cell 0 finds it.
func (g *Grid) Diameter() int {
	d := 0
	dist := map[int]int{0: 0}
	for queue := []int{0}; len(queue) > 0; queue = queue[1:] {
		for _, r := range g.Influence(queue[0]) {
			if _, seen := dist[r]; !seen {
				dist[r] = dist[queue[0]] + 1
				d = max(d, dist[r])
				queue = append(queue, r)
			}
		}
	}
	return d
}

// SubPopulationSize returns the number of distinct cells in rank's
// neighbourhood (the s of §II-B).
func (g *Grid) SubPopulationSize(rank int) int {
	return len(g.Neighborhood(rank))
}

// Render draws the grid as ASCII art, marking the neighbourhood of the
// given rank: C for the center, N for neighbours, · elsewhere. It
// reproduces the structure of the paper's Fig 1.
func (g *Grid) Render(rank int) string {
	nb := g.Neighborhood(rank)
	inNb := make(map[int]bool, len(nb))
	for _, r := range nb {
		inNb[r] = true
	}
	g.mu.RLock()
	rows, cols := g.rows, g.cols
	g.mu.RUnlock()
	var b strings.Builder
	fmt.Fprintf(&b, "%d×%d toroidal grid, neighbourhood of cell N(%d,%d):\n", rows, cols, rank/cols, rank%cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			cell := r*cols + c
			switch {
			case cell == rank:
				b.WriteString(" C ")
			case inNb[cell]:
				b.WriteString(" N ")
			default:
				b.WriteString(" · ")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
