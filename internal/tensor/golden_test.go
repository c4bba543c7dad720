package tensor_test

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"cellgan/internal/config"
	"cellgan/internal/core"
	"cellgan/internal/tensor"
)

// goldenStateHashes pins the exact bytes a tiny sequential run produces:
// SHA-256 over the concatenated FullState.Marshal() of every cell. The
// twin-run determinism suites compare two runs inside one binary, so a
// change to floating-point operation order that hits both twins passes
// them; these constants were recorded on the commit before the
// single-layer-protocol refactor and only change when training numerics
// do.
var goldenStateHashes = map[string]string{
	"mlp/bce":     "5cb48cf7b36bc32b337d87c0b28b4c03cf5b4ed8c39abc8b14a3b4eba4e52b26",
	"mlp/minimax": "af1f3c71d2c46843b4604463845b3c1201ce6a6724d9706ea5284a47d22e15e8",
	"mlp/lsgan":   "c92c60af066be8d906cb88ac4b7d01a447c0ab179011073368b3d68ed8620dc6",
	"mlp/wgan":    "fe55b18f73de018e0abac072e7f300b0b69f71872264b30c59383035bda53ab4",
	"cnn/bce":     "299eee825dfcace5ec16e74782b3ff4947a1922415534b1adff6674a8783f62e",
}

// TestGoldenStateHash lives beside the leaves it pins and drives a whole
// training run through core under each leaf tier.
func TestGoldenStateHash(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes recorded on amd64; other architectures may fuse multiply-adds")
	}
	tensor.EachLeafTier(t, func(t *testing.T) {
		for name, want := range goldenStateHashes {
			t.Run(name, func(t *testing.T) {
				cfg := config.Default().Scaled(2, 8, 100)
				cfg.Iterations = 3
				cfg.BatchesPerIteration = 2
				cfg.LossSet = name[4:]
				if name[:3] == "cnn" {
					cfg.NetworkType = "CNN"
					cfg.BatchSize = 4
				}
				res, err := core.RunSequential(cfg, core.RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				for _, f := range res.Full {
					h.Write(f.Marshal())
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != want {
					t.Errorf("state hash %s, want %s", got, want)
				}
			})
		}
	})
}
