package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// matMagic guards against decoding arbitrary byte streams as matrices.
const matMagic = 0x4d41545a // "MATZ"

// maxDecodeElems bounds decoded matrix sizes to catch corrupted headers
// before they turn into multi-gigabyte allocations.
const maxDecodeElems = 1 << 28

// WriteMat serialises m to w in a fixed little-endian binary format:
// magic, rows, cols (uint32 each) followed by Rows*Cols float64 bits. It
// returns the number of bytes written.
func WriteMat(w io.Writer, m *Mat) (int64, error) {
	hdr := make([]byte, 12)
	binary.LittleEndian.PutUint32(hdr[0:], matMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(m.Rows))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(m.Cols))
	n, err := w.Write(hdr)
	total := int64(n)
	if err != nil {
		return total, err
	}
	buf := make([]byte, 8*len(m.Data))
	for i, v := range m.Data {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	n, err = w.Write(buf)
	return total + int64(n), err
}

// ReadMat decodes a matrix previously written with WriteMat.
func ReadMat(r io.Reader) (*Mat, error) {
	hdr := make([]byte, 12)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("tensor: reading matrix header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != matMagic {
		return nil, errors.New("tensor: bad matrix magic")
	}
	rows := int(binary.LittleEndian.Uint32(hdr[4:]))
	cols := int(binary.LittleEndian.Uint32(hdr[8:]))
	if rows < 0 || cols < 0 || (cols != 0 && rows > maxDecodeElems/max(cols, 1)) || rows*cols > maxDecodeElems {
		return nil, fmt.Errorf("tensor: implausible matrix size %d×%d", rows, cols)
	}
	m := New(rows, cols)
	buf := make([]byte, 8*len(m.Data))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("tensor: reading matrix body: %w", err)
	}
	for i := range m.Data {
		m.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return m, nil
}

// EncodeMats serialises a sequence of matrices to w.
func EncodeMats(w io.Writer, ms []*Mat) error {
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(ms)))
	if _, err := w.Write(cnt[:]); err != nil {
		return err
	}
	for _, m := range ms {
		if _, err := WriteMat(w, m); err != nil {
			return err
		}
	}
	return nil
}

// DecodeMats reads a sequence of matrices written by EncodeMats.
func DecodeMats(r io.Reader) ([]*Mat, error) {
	var cnt [4]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return nil, fmt.Errorf("tensor: reading matrix count: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(cnt[:]))
	if n < 0 || n > 1<<20 {
		return nil, fmt.Errorf("tensor: implausible matrix count %d", n)
	}
	ms := make([]*Mat, n)
	for i := range ms {
		m, err := ReadMat(r)
		if err != nil {
			return nil, err
		}
		ms[i] = m
	}
	return ms, nil
}

// AllFinite reports whether no element of any matrix in ms is NaN or ±Inf
// — the scan decoders of untrusted parameter blobs run before use.
func AllFinite(ms []*Mat) bool {
	for _, m := range ms {
		for _, v := range m.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}
