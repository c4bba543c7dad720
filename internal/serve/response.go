package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"sync"

	"cellgan/internal/dataset"
	"cellgan/internal/tensor"
)

// respBufPool recycles /v1/generate response buffers. Only a response of
// at most MaxBatchSamples samples returns its buffer, so none outgrows
// the encoding of one full batch, and one that served only small
// responses stays small.
var respBufPool = sync.Pool{New: func() any { return new([]byte) }}

// appendResponse appends to b what json.NewEncoder writes for the
// GenerateResponse of out in encoding. The encoder writes every field
// but base64's data; that one, the bulk payload, is the last field a
// base64 response carries, so it is encoded from out's rows in front of
// the encoder's closing "}\n". A value the float encoding cannot carry
// fails with encoding/json's error.
func (m *Model) appendResponse(b []byte, out *tensor.Mat, encoding string) ([]byte, error) {
	resp := GenerateResponse{Model: m.Name, Version: m.Version, Hash: m.Hash, N: out.Rows, Dim: out.Cols, Encoding: encoding}
	switch encoding {
	case "float":
		resp.Samples = make([][]float64, out.Rows)
		for i := range resp.Samples {
			resp.Samples[i] = out.Row(i)
		}
	case "pgm":
		side, _ := pgmSide(out.Cols)
		resp.PGM = make([]string, out.Rows)
		for i := range resp.PGM {
			var sb strings.Builder
			if err := dataset.WritePGM(&sb, out.Row(i), side); err != nil {
				return b, err
			}
			resp.PGM[i] = sb.String()
		}
	}
	buf := bytes.NewBuffer(b)
	if err := json.NewEncoder(buf).Encode(&resp); err != nil || encoding != "base64" {
		return buf.Bytes(), err
	}
	b = buf.Bytes()
	return append(appendBase64(b[:len(b)-len("}\n")], out.Data), "}\n"...), nil
}

// appendBase64 appends `,"data":"…"`: data as row-major little-endian
// float64 in standard base64, staged on the stack 3·128 floats at a time:
// whole 3-byte groups, so the chunks concatenate to one encoding.
func appendBase64(b []byte, data []float64) []byte {
	b = append(slices.Grow(b, base64.StdEncoding.EncodedLen(8*len(data))+12), `,"data":"`...)
	var raw [8 * 3 * 128]byte
	for len(data) > 0 {
		k := min(len(data), len(raw)/8)
		for i, v := range data[:k] {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
		}
		b = base64.StdEncoding.AppendEncode(b, raw[:8*k])
		data = data[k:]
	}
	return append(b, '"')
}

// pgmSide returns the side of a square image of dim pixels.
func pgmSide(dim int) (int, bool) {
	side := int(math.Round(math.Sqrt(float64(dim))))
	return side, side*side == dim
}
