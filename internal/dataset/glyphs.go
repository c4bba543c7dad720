// Package dataset provides a deterministic, procedurally generated
// substitute for the MNIST handwritten-digit dataset used in the paper's
// evaluation. MNIST itself cannot be fetched in an offline build, so the
// package renders 28×28 grayscale digits 0–9 from stroke-based glyph
// definitions with per-sample random affine deformation, stroke-thickness
// jitter and pixel noise. The result keeps the properties the paper's
// experiments rely on: ten well-separated modes, a fixed 60k/10k
// train/test split, and pixel values normalised to [-1, 1] (matching the
// tanh output of the generator network).
//
// Every sample is a pure function of (dataset seed, split, index), so the
// "dataset" is virtual: no storage is needed, any subset can be generated
// on demand, and distributed workers see bit-identical data without
// shipping files around — mirroring the paper's "download data" step.
package dataset

import "math"

// A segment is a straight stroke in glyph space. Glyphs are defined on the
// unit square [0,1]² with (0,0) at the top-left; x grows rightwards and y
// downwards.
type segment struct {
	x1, y1, x2, y2 float64
}

// maxGlyphStrokes bounds the strokes of a glyph (digit 8 has the most,
// ten), so Render keeps a sample's transformed strokes on its stack.
const maxGlyphStrokes = 16

// glyphStrokes defines each digit as a polyline set roughly mimicking
// seven-segment-style handwriting skeletons with a few diagonals so the
// classes are visually distinct.
var glyphStrokes = [10][]segment{
	// 0: rounded rectangle outline
	{
		{0.25, 0.15, 0.75, 0.15},
		{0.75, 0.15, 0.80, 0.50},
		{0.80, 0.50, 0.75, 0.85},
		{0.75, 0.85, 0.25, 0.85},
		{0.25, 0.85, 0.20, 0.50},
		{0.20, 0.50, 0.25, 0.15},
	},
	// 1: vertical bar with a small flag
	{
		{0.50, 0.12, 0.50, 0.88},
		{0.50, 0.12, 0.35, 0.28},
		{0.35, 0.88, 0.65, 0.88},
	},
	// 2: top arc, diagonal, base
	{
		{0.22, 0.25, 0.40, 0.12},
		{0.40, 0.12, 0.68, 0.15},
		{0.68, 0.15, 0.78, 0.35},
		{0.78, 0.35, 0.25, 0.85},
		{0.25, 0.85, 0.80, 0.85},
	},
	// 3: two stacked right-open bumps
	{
		{0.22, 0.15, 0.70, 0.15},
		{0.70, 0.15, 0.78, 0.32},
		{0.78, 0.32, 0.50, 0.48},
		{0.50, 0.48, 0.78, 0.65},
		{0.78, 0.65, 0.70, 0.85},
		{0.70, 0.85, 0.22, 0.85},
	},
	// 4: open top, vertical right stroke
	{
		{0.30, 0.12, 0.22, 0.55},
		{0.22, 0.55, 0.80, 0.55},
		{0.65, 0.12, 0.65, 0.88},
	},
	// 5: top bar, left drop, lower bump
	{
		{0.78, 0.12, 0.25, 0.12},
		{0.25, 0.12, 0.24, 0.45},
		{0.24, 0.45, 0.70, 0.45},
		{0.70, 0.45, 0.78, 0.65},
		{0.78, 0.65, 0.68, 0.85},
		{0.68, 0.85, 0.22, 0.82},
	},
	// 6: descending curve with closed lower loop
	{
		{0.70, 0.12, 0.35, 0.30},
		{0.35, 0.30, 0.22, 0.60},
		{0.22, 0.60, 0.30, 0.85},
		{0.30, 0.85, 0.68, 0.85},
		{0.68, 0.85, 0.75, 0.65},
		{0.75, 0.65, 0.60, 0.50},
		{0.60, 0.50, 0.25, 0.55},
	},
	// 7: top bar and long diagonal
	{
		{0.20, 0.15, 0.80, 0.15},
		{0.80, 0.15, 0.42, 0.88},
		{0.35, 0.50, 0.68, 0.50},
	},
	// 8: two stacked loops
	{
		{0.30, 0.12, 0.70, 0.12},
		{0.70, 0.12, 0.75, 0.30},
		{0.75, 0.30, 0.50, 0.48},
		{0.50, 0.48, 0.25, 0.30},
		{0.25, 0.30, 0.30, 0.12},
		{0.50, 0.48, 0.78, 0.68},
		{0.78, 0.68, 0.70, 0.88},
		{0.70, 0.88, 0.30, 0.88},
		{0.30, 0.88, 0.22, 0.68},
		{0.22, 0.68, 0.50, 0.48},
	},
	// 9: upper loop with descending tail
	{
		{0.70, 0.40, 0.40, 0.48},
		{0.40, 0.48, 0.25, 0.30},
		{0.25, 0.30, 0.35, 0.12},
		{0.35, 0.12, 0.68, 0.12},
		{0.68, 0.12, 0.75, 0.30},
		{0.75, 0.30, 0.70, 0.55},
		{0.70, 0.55, 0.55, 0.88},
	},
}

// A stroke is a segment with the terms of its projection that do not
// depend on the pixel: its direction (dx, dy) and squared length l2.
type stroke struct{ x1, y1, dx, dy, l2 float64 }

func newStroke(s segment) stroke {
	dx, dy := s.x2-s.x1, s.y2-s.y1
	return stroke{s.x1, s.y1, dx, dy, dx*dx + dy*dy}
}

// nearestSqDist returns the squared Euclidean distance from point (px, py)
// to the nearest of strokes. Each projection is clamped before it is
// divided, so a point beyond either end of a stroke costs no division.
func nearestSqDist(strokes []stroke, px, py float64) float64 {
	best := math.Inf(1)
	for i := range strokes {
		s := &strokes[i]
		var t float64
		if s.l2 > 0 {
			switch num := (px-s.x1)*s.dx + (py-s.y1)*s.dy; {
			case num < 0:
			case num >= s.l2:
				t = 1
			default:
				t = num / s.l2
			}
		}
		ex := px - (s.x1 + t*s.dx)
		ey := py - (s.y1 + t*s.dy)
		if d2 := ex*ex + ey*ey; d2 < best {
			best = d2
		}
	}
	return best
}
