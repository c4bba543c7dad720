package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"cellgan/internal/tensor"
)

func TestSplitSizes(t *testing.T) {
	if Train(1).N != 60000 {
		t.Fatalf("train size %d", Train(1).N)
	}
	if Test(1).N != 10000 {
		t.Fatalf("test size %d", Test(1).N)
	}
}

func TestWithSize(t *testing.T) {
	d := Train(1).WithSize(500)
	if d.N != 500 {
		t.Fatalf("N = %d", d.N)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative size accepted")
		}
	}()
	d.WithSize(-1)
}

func TestLabelsBalanced(t *testing.T) {
	d := Train(7).WithSize(1000)
	counts := make([]int, NumClasses)
	for i := 0; i < d.N; i++ {
		counts[d.Label(i)]++
	}
	for c, n := range counts {
		if n != 100 {
			t.Fatalf("class %d has %d samples", c, n)
		}
	}
}

func TestRenderDeterministic(t *testing.T) {
	d1 := Train(42)
	d2 := Train(42)
	a := make([]float64, Pixels)
	b := make([]float64, Pixels)
	for _, i := range []int{0, 1, 9, 573, 59999} {
		d1.Render(i, a)
		d2.Render(i, b)
		for p := range a {
			if a[p] != b[p] {
				t.Fatalf("sample %d differs at pixel %d", i, p)
			}
		}
	}
}

func TestRenderSeedsDiffer(t *testing.T) {
	a, _ := Train(1).Sample(0)
	b, _ := Train(2).Sample(0)
	same := true
	for p := range a {
		if a[p] != b[p] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical images")
	}
}

func TestTrainTestStreamsDiffer(t *testing.T) {
	a, _ := Train(1).Sample(0)
	b, _ := Test(1).Sample(0)
	same := true
	for p := range a {
		if a[p] != b[p] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("train and test share samples")
	}
}

func TestPixelRangeAndInk(t *testing.T) {
	d := Train(3)
	img := make([]float64, Pixels)
	for i := 0; i < 20; i++ {
		d.Render(i, img)
		inked := 0
		for _, v := range img {
			if v < -1 || v > 1 {
				t.Fatalf("pixel out of range: %v", v)
			}
			if v > 0 {
				inked++
			}
		}
		// A digit should ink a meaningful but minority share of the canvas.
		if inked < 20 || inked > Pixels/2 {
			t.Fatalf("sample %d has implausible ink coverage %d/%d", i, inked, Pixels)
		}
	}
}

func TestRenderBadArgsPanic(t *testing.T) {
	d := Train(1)
	for name, f := range map[string]func(){
		"short buffer": func() { d.Render(0, make([]float64, 10)) },
		"neg index":    func() { d.Render(-1, make([]float64, Pixels)) },
		"past end":     func() { d.Render(d.N, make([]float64, Pixels)) },
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

func TestClassesAreSeparable(t *testing.T) {
	// Mean images of different digits should be far apart relative to
	// within-class scatter; this is what makes mode-collapse measurable.
	d := Train(5)
	means := make([][]float64, NumClasses)
	for c := range means {
		means[c] = make([]float64, Pixels)
	}
	perClass := 20
	img := make([]float64, Pixels)
	for c := 0; c < NumClasses; c++ {
		for k := 0; k < perClass; k++ {
			idx := c + k*NumClasses // label(i) = i mod 10
			d.Render(idx, img)
			for p, v := range img {
				means[c][p] += v / float64(perClass)
			}
		}
	}
	for a := 0; a < NumClasses; a++ {
		for b := a + 1; b < NumClasses; b++ {
			dist := 0.0
			for p := range means[a] {
				dd := means[a][p] - means[b][p]
				dist += dd * dd
			}
			if math.Sqrt(dist) < 1.5 {
				t.Fatalf("digits %d and %d have nearly identical means (dist %v)", a, b, math.Sqrt(dist))
			}
		}
	}
}

func TestBatchShapeAndLabels(t *testing.T) {
	d := Train(6)
	x, labels := d.Batch([]int{0, 11, 22})
	if x.Rows != 3 || x.Cols != Pixels {
		t.Fatalf("batch shape %d×%d", x.Rows, x.Cols)
	}
	want := []int{0, 1, 2}
	for i := range labels {
		if labels[i] != want[i] {
			t.Fatalf("labels %v want %v", labels, want)
		}
	}
	single, _ := d.Sample(11)
	for p, v := range single {
		if x.At(1, p) != v {
			t.Fatal("batch row disagrees with Sample")
		}
	}
}

func TestLoaderCoversEpochExactlyOnce(t *testing.T) {
	d := Train(7).WithSize(25)
	l := NewLoader(d, 10, tensor.NewRNG(1))
	if l.BatchesPerEpoch() != 3 {
		t.Fatalf("BatchesPerEpoch = %d", l.BatchesPerEpoch())
	}
	seen := map[int]int{}
	total := 0
	for b := 0; b < 3; b++ {
		x, labels := l.Next()
		total += x.Rows
		for _, lb := range labels {
			seen[lb]++
		}
	}
	if total != 25 {
		t.Fatalf("epoch covered %d samples", total)
	}
	// 25 samples over 10 classes: classes 0-4 appear 3×, 5-9 appear 2×.
	for c := 0; c < 5; c++ {
		if seen[c] != 3 {
			t.Fatalf("class %d seen %d times", c, seen[c])
		}
	}
	if l.Epoch() != 0 {
		t.Fatalf("epoch counter %d before wrap", l.Epoch())
	}
	l.Next() // wraps
	if l.Epoch() != 1 {
		t.Fatalf("epoch counter %d after wrap", l.Epoch())
	}
}

// TestLoaderNextAllocs is the tripwire of the loader's own batch: within
// an epoch, Next renders into the matrix and labels it already holds.
func TestLoaderNextAllocs(t *testing.T) {
	l := NewLoader(Train(5).WithSize(1000), 10, tensor.NewRNG(3))
	l.Next()
	if allocs := testing.AllocsPerRun(50, func() { l.Next() }); allocs != 0 {
		t.Fatalf("Next allocates %.0f times per batch, want 0", allocs)
	}
	if l.Epoch() != 0 {
		t.Fatal("the tripwire crossed an epoch boundary")
	}
}

func TestLoaderShufflesBetweenEpochs(t *testing.T) {
	d := Train(8).WithSize(40)
	l := NewLoader(d, 40, tensor.NewRNG(2))
	_, labels := l.Next()
	first := append([]int(nil), labels...) // Next renders into labels again
	_, second := l.Next()
	same := true
	for i := range first {
		if first[i] != second[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two epochs used identical order")
	}
}

func TestLoaderBadBatchSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewLoader(Train(1), 0, tensor.NewRNG(1))
}

func TestQuickRenderAlwaysInRange(t *testing.T) {
	d := Train(11)
	img := make([]float64, Pixels)
	f := func(iRaw uint32) bool {
		i := int(iRaw) % d.N
		d.Render(i, img)
		for _, v := range img {
			if v < -1 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWritePGM(t *testing.T) {
	img, _ := Train(1).Sample(0)
	var buf bytes.Buffer
	if err := WritePGM(&buf, img, Side); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "P2\n28 28\n255\n") {
		t.Fatalf("bad PGM header: %q", s[:20])
	}
	if got := strings.Count(s, "\n"); got != 3+Side {
		t.Fatalf("PGM line count %d", got)
	}
	if err := WritePGM(&buf, img, 5); err == nil {
		t.Fatal("bad side accepted")
	}
}

func TestASCIIArt(t *testing.T) {
	img, _ := Train(1).Sample(1)
	art := ASCIIArt(img, Side)
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != Side {
		t.Fatalf("art has %d lines", len(lines))
	}
	for _, l := range lines {
		if len(l) != Side {
			t.Fatalf("art line width %d", len(l))
		}
	}
	if !strings.ContainsAny(art, "#%@") {
		t.Fatal("art contains no ink")
	}
}

func TestDistToSegment(t *testing.T) {
	s := []stroke{newStroke(segment{0, 0, 1, 0})}
	cases := []struct {
		x, y, want float64
	}{
		{0.5, 0, 0},
		{0.5, 0.3, 0.3},
		{-1, 0, 1},
		{2, 0, 1},
		{0, 1, 1},
	}
	for _, c := range cases {
		if got := math.Sqrt(nearestSqDist(s, c.x, c.y)); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("dist(%v,%v) = %v want %v", c.x, c.y, got, c.want)
		}
	}
	// Degenerate zero-length segment behaves as a point.
	p := []stroke{newStroke(segment{0.5, 0.5, 0.5, 0.5})}
	if got := math.Sqrt(nearestSqDist(p, 0.5, 1.0)); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("point dist = %v", got)
	}
}

func TestAllGlyphsDefined(t *testing.T) {
	for d, strokes := range glyphStrokes {
		if len(strokes) < 2 || len(strokes) > maxGlyphStrokes {
			t.Fatalf("digit %d has %d strokes, want 2 to %d", d, len(strokes), maxGlyphStrokes)
		}
		for _, s := range strokes {
			for _, v := range []float64{s.x1, s.y1, s.x2, s.y2} {
				if v < 0 || v > 1 {
					t.Fatalf("digit %d stroke out of unit box: %+v", d, s)
				}
			}
		}
	}
}
