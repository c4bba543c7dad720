package dataset

import (
	"fmt"
	"math"

	"cellgan/internal/tensor"
)

// Image geometry constants matching MNIST.
const (
	// Side is the width and height of every image in pixels.
	Side = 28
	// Pixels is the flattened image length (Side²).
	Pixels = Side * Side
	// NumClasses is the number of digit classes.
	NumClasses = 10
	// DefaultTrainSize matches the MNIST training split.
	DefaultTrainSize = 60000
	// DefaultTestSize matches the MNIST test split.
	DefaultTestSize = 10000
)

// Source is any indexed, labelled image collection the training loop can
// consume: the procedural Dataset, an in-memory set loaded from IDX files
// (real MNIST), or a shard of either.
type Source interface {
	// Len returns the number of samples.
	Len() int
	// Label returns the class of sample i.
	Label(i int) int
	// Render rasterises sample i into dst (length Pixels, values in
	// [-1, 1]).
	Render(i int, dst []float64)
}

// BatchOf renders the samples of src at the given indices into a
// len(idx)×Pixels matrix with aligned labels.
func BatchOf(src Source, idx []int) (*tensor.Mat, []int) {
	x, labels := tensor.New(len(idx), Pixels), make([]int, len(idx))
	renderInto(x, labels, src, idx)
	return x, labels
}

// renderInto renders the samples of src at idx into the rows of x and
// their labels into labels, both len(idx) long.
func renderInto(x *tensor.Mat, labels []int, src Source, idx []int) {
	for r, i := range idx {
		src.Render(i, x.Row(r))
		labels[r] = src.Label(i)
	}
}

// Dataset is a virtual, deterministically generated image collection.
// Sample i is a pure function of (Seed, salt, i); two Datasets with the
// same parameters are interchangeable across processes.
type Dataset struct {
	// N is the number of samples.
	N int
	// Seed keys the whole collection.
	Seed uint64
	// salt separates the train and test streams drawn from one seed.
	salt uint64
}

// Train returns the 60 000-sample training split for seed.
func Train(seed uint64) *Dataset { return &Dataset{N: DefaultTrainSize, Seed: seed, salt: 0x7261696e} }

// Test returns the 10 000-sample held-out split for seed.
func Test(seed uint64) *Dataset { return &Dataset{N: DefaultTestSize, Seed: seed, salt: 0x74657374} }

// WithSize returns a copy of d truncated or extended to n samples.
func (d *Dataset) WithSize(n int) *Dataset {
	if n < 0 {
		panic("dataset: negative size")
	}
	c := *d
	c.N = n
	return &c
}

// Len returns the number of samples (Source interface).
func (d *Dataset) Len() int { return d.N }

// Label returns the class of sample i. Classes are balanced by
// construction (round-robin over the ten digits).
func (d *Dataset) Label(i int) int {
	d.check(i)
	return i % NumClasses
}

func (d *Dataset) check(i int) {
	if i < 0 || i >= d.N {
		panic(fmt.Sprintf("dataset: index %d out of range [0,%d)", i, d.N))
	}
}

// deform holds the per-sample augmentation parameters.
type deform struct {
	dx, dy    float64 // translation in glyph space
	scale     float64 // isotropic scale
	shear     float64 // x-shear as a function of y
	rotate    float64 // rotation in radians
	thickness float64 // stroke half-width in glyph space
	noise     float64 // additive pixel noise std
}

// sampleDeform derives the augmentation for sample i from the dataset key.
func (d *Dataset) sampleDeform(i int) deform {
	rng := tensor.NewRNG(d.Seed ^ d.salt*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9)
	return deform{
		dx:        (rng.Float64() - 0.5) * 0.12,
		dy:        (rng.Float64() - 0.5) * 0.12,
		scale:     0.85 + rng.Float64()*0.3,
		shear:     (rng.Float64() - 0.5) * 0.3,
		rotate:    (rng.Float64() - 0.5) * 0.35,
		thickness: 0.045 + rng.Float64()*0.035,
		noise:     0.02 + rng.Float64()*0.03,
	}
}

// Render rasterises sample i into dst, which must have length Pixels.
// Pixel values land in [-1, 1]: -1 is background, +1 a fully inked stroke.
func (d *Dataset) Render(i int, dst []float64) {
	d.check(i)
	if len(dst) != Pixels {
		panic(fmt.Sprintf("dataset: Render needs a %d-element buffer, got %d", Pixels, len(dst)))
	}
	glyph := glyphStrokes[d.Label(i)]
	df := d.sampleDeform(i)
	var buf [maxGlyphStrokes]stroke
	strokes := buf[:len(glyph)]
	transformStrokes(strokes, glyph, df)

	noiseRNG := tensor.NewRNG(d.Seed ^ d.salt ^ uint64(i)*0x94d049bb133111eb ^ 0x6e6f697365)
	inv := 1.0 / float64(Side)
	for py := 0; py < Side; py++ {
		fy := (float64(py) + 0.5) * inv
		for px := 0; px < Side; px++ {
			fx := (float64(px) + 0.5) * inv
			// The nearest stroke by squared distance, then one root:
			// sqrt is monotone and correctly rounded, so this is the
			// minimum of the per-stroke distances to the bit.
			best := math.Sqrt(nearestSqDist(strokes, fx, fy))
			// Soft-edged stroke: fully inked inside the half-width,
			// fading linearly over one pixel of glyph space.
			ink := 1 - (best-df.thickness)/(1.5*inv)
			if ink > 1 {
				ink = 1
			} else if ink < 0 {
				ink = 0
			}
			v := 2*ink - 1 + noiseRNG.NormFloat64()*df.noise
			if v > 1 {
				v = 1
			} else if v < -1 {
				v = -1
			}
			dst[py*Side+px] = v
		}
	}
}

// transformStrokes applies the sample deformation to the glyph skeleton
// src, writing the strokes to out[:len(src)].
func transformStrokes(out []stroke, src []segment, df deform) {
	sin, cos := math.Sincos(df.rotate)
	tr := func(x, y float64) (float64, float64) {
		// Centre, shear, rotate, scale, translate, un-centre.
		cx, cy := x-0.5, y-0.5
		cx += df.shear * cy
		rx := cx*cos - cy*sin
		ry := cx*sin + cy*cos
		rx *= df.scale
		ry *= df.scale
		return rx + 0.5 + df.dx, ry + 0.5 + df.dy
	}
	for i, s := range src {
		x1, y1 := tr(s.x1, s.y1)
		x2, y2 := tr(s.x2, s.y2)
		out[i] = newStroke(segment{x1, y1, x2, y2})
	}
}

// Sample returns a freshly allocated image and its label.
func (d *Dataset) Sample(i int) ([]float64, int) {
	buf := make([]float64, Pixels)
	d.Render(i, buf)
	return buf, d.Label(i)
}

// Batch renders the samples at the given indices into a len(idx)×Pixels
// matrix and returns it with the aligned labels.
func (d *Dataset) Batch(idx []int) (*tensor.Mat, []int) {
	return BatchOf(d, idx)
}

// Loader iterates over a data source in shuffled mini-batches,
// re-shuffling every epoch. It is the Go analogue of a PyTorch
// DataLoader.
type Loader struct {
	src       Source
	batchSize int
	rng       *tensor.RNG
	perm      []int
	cursor    int
	epoch     int
	batch     tensor.Mat // Next renders into batch and labels
	labels    []int
}

// NewLoader returns a Loader over src with the given batch size; rng
// drives the per-epoch shuffles.
func NewLoader(src Source, batchSize int, rng *tensor.RNG) *Loader {
	if batchSize <= 0 {
		panic("dataset: batch size must be positive")
	}
	l := &Loader{src: src, batchSize: batchSize, rng: rng, labels: make([]int, batchSize)}
	l.reshuffle()
	return l
}

func (l *Loader) reshuffle() {
	l.perm = l.rng.Perm(l.src.Len())
	l.cursor = 0
}

// Epoch returns how many complete passes the loader has finished.
func (l *Loader) Epoch() int { return l.epoch }

// Next returns the next mini-batch, wrapping to a new shuffled epoch when
// the current one is exhausted. The final partial batch of an epoch is
// returned as-is (it may be smaller than the batch size). The matrix and
// the labels are the loader's own, rendered into again by the next call:
// they are valid until then.
func (l *Loader) Next() (*tensor.Mat, []int) {
	if l.cursor >= len(l.perm) {
		l.epoch++
		l.reshuffle()
	}
	end := l.cursor + l.batchSize
	if end > len(l.perm) {
		end = len(l.perm)
	}
	idx := l.perm[l.cursor:end]
	l.cursor = end
	x, labels := l.batch.Resize(len(idx), Pixels), l.labels[:len(idx)]
	renderInto(x, labels, l.src, idx)
	return x, labels
}

// BatchesPerEpoch returns the number of Next calls per full pass.
func (l *Loader) BatchesPerEpoch() int {
	return (l.src.Len() + l.batchSize - 1) / l.batchSize
}

// LoaderState is the serialisable position of a Loader within its epoch
// stream, for checkpoint/resume.
type LoaderState struct {
	// Perm is the current epoch's sample order.
	Perm []int `json:"perm"`
	// Cursor is the next index into Perm.
	Cursor int `json:"cursor"`
	// Epoch is the completed-epoch count.
	Epoch int `json:"epoch"`
	// RNG is the shuffle generator's serialised state.
	RNG []byte `json:"rng"`
}

// State snapshots the loader so a restored loader continues with the
// exact same batch sequence.
func (l *Loader) State() (LoaderState, error) {
	rngState, err := l.rng.MarshalBinary()
	if err != nil {
		return LoaderState{}, err
	}
	return LoaderState{
		Perm:   append([]int(nil), l.perm...),
		Cursor: l.cursor,
		Epoch:  l.epoch,
		RNG:    rngState,
	}, nil
}

// Restore overwrites the loader position with a snapshot taken from a
// loader over the same dataset and batch size.
func (l *Loader) Restore(s LoaderState) error {
	if len(s.Perm) != l.src.Len() {
		return fmt.Errorf("dataset: loader state permutation has %d entries, dataset has %d", len(s.Perm), l.src.Len())
	}
	if s.Cursor < 0 || s.Cursor > len(s.Perm) {
		return fmt.Errorf("dataset: loader cursor %d out of range", s.Cursor)
	}
	seen := make([]bool, l.src.Len())
	for _, v := range s.Perm {
		if v < 0 || v >= l.src.Len() || seen[v] {
			return fmt.Errorf("dataset: loader state permutation is not a permutation of [0,%d)", l.src.Len())
		}
		seen[v] = true
	}
	if err := l.rng.UnmarshalBinary(s.RNG); err != nil {
		return err
	}
	l.perm = append(l.perm[:0:0], s.Perm...)
	l.cursor = s.Cursor
	l.epoch = s.Epoch
	return nil
}
