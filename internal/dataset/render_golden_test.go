package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// renderGolden pins the exact pixels Render produces: SHA-256 over the
// little-endian float64 bits of the first 2000 training samples of seeds 1
// and 2, in order. Recorded before Render took the minimum over squared
// distances; a change to the pixel arithmetic that is not bit-exact, or to
// the noise stream, moves it.
const renderGolden = "13444cf0362eec580a335641ce1113de5953d648674dd228a96a08cbcd767862"

func TestRenderGolden(t *testing.T) {
	h := sha256.New()
	buf := make([]float64, Pixels)
	var b [8]byte
	for _, seed := range []uint64{1, 2} {
		d := Train(seed)
		for i := 0; i < 2000; i++ {
			d.Render(i, buf)
			for _, v := range buf {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != renderGolden {
		t.Errorf("render hash %s, want %s", got, renderGolden)
	}
}
