package tensor_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"cellgan/internal/config"
	"cellgan/internal/core"
	"cellgan/internal/nn"
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

// goldenSampleHashes pins mixture sampling at both widths: SHA-256 over the
// little-endian float64 bits of a fixed-seed 64-sample batch from a
// three-generator mixture. Recorded on the commit before the nn layers
// became generic, when the float32 tier ran a hand-written lowering of
// each layer; the float32 instantiation reproduces it bit for bit.
var goldenSampleHashes = map[string]string{
	"mlp/float64": "989ab1f5b19574026549cb4e7fe870cb76eb3d177f734b5a586ee9e8c47d81e3",
	"mlp/float32": "416d1325784634c8cf61a2a95eed0d6488bc355a0f3aa51994dd3a6dc6d3491b",
	"cnn/float64": "80d2c8eefe11a61ef99506a9d37fdfb8b1294c098f55213af762704b24b56fa1",
	"cnn/float32": "cc3386c9cf9a11e7c8e9994608772039e86bd137ac7d516979c0b26bd51ec4f0",
}

func TestGoldenSampleHash(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes recorded on amd64; other architectures may fuse multiply-adds")
	}
	tensor.EachLeafTier(t, func(t *testing.T) {
		for _, arch := range []string{"mlp", "cnn"} {
			cfg := config.Default().Scaled(2, 8, 100)
			if arch == "cnn" {
				cfg.NetworkType = "CNN"
			}
			rng := tensor.NewRNG(5)
			gens := map[int]*nn.Network{}
			for r := 0; r < 3; r++ {
				gens[r] = core.BuildGenerator(cfg, rng)
			}
			m, err := core.NewMixture(gens)
			if err != nil {
				t.Fatal(err)
			}
			m.Weights = []float64{0.5, 0.3, 0.2}
			for width, s := range map[string]interface {
				SampleWith(*core.SampleWorkspace, int, int, *tensor.RNG) *tensor.Mat
			}{"float64": m, "float32": m.Narrow()} {
				name := arch + "/" + width
				t.Run(name, func(t *testing.T) {
					out := s.SampleWith(core.NewSampleWorkspace(), 64, cfg.InputNeurons, tensor.NewRNG(9))
					h := sha256.New()
					for _, v := range out.Data {
						h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
					}
					if got := hex.EncodeToString(h.Sum(nil)); got != goldenSampleHashes[name] {
						t.Errorf("sample hash %s, want %s", got, goldenSampleHashes[name])
					}
				})
			}
		}
	})
}
