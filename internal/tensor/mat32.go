package tensor

// NarrowInto resizes dst to src's shape and fills it with src narrowed to
// float32 — the model-load and latent-staging conversion of the serving
// tier. It returns dst.
func NarrowInto(dst *Mat32, src *Mat) *Mat32 {
	dst.Resize(src.Rows, src.Cols)
	for i, v := range src.Data {
		dst.Data[i] = float32(v)
	}
	return dst
}

// Narrow returns a freshly allocated float32 copy of src.
func Narrow(src *Mat) *Mat32 { return NarrowInto(new(Mat32), src) }
