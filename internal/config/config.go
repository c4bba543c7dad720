// Package config defines the experiment configuration of the reproduction,
// mirroring the paper's Table I ("Parameters settings of the trained
// GANs") plus the execution parameters of Table II. The master process
// broadcasts a Config to every slave at start-up (§III-B), so the type is
// JSON-serialisable.
package config

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// Config captures every tunable of a training run.
type Config struct {
	// --- Network topology (Table I) ---

	// NetworkType names the architecture: "MLP" or "CNN" (DCGAN-style
	// conv stacks over 28×28 images).
	NetworkType string `json:"network_type"`
	// InputNeurons is the generator latent dimension (64 in the paper).
	InputNeurons int `json:"input_neurons"`
	// HiddenLayers is the number of hidden layers (2).
	HiddenLayers int `json:"hidden_layers"`
	// NeuronsPerHidden is the width of each hidden layer (256).
	NeuronsPerHidden int `json:"neurons_per_hidden"`
	// OutputNeurons is the image dimension (784 = 28×28).
	OutputNeurons int `json:"output_neurons"`
	// Activation is the hidden activation ("tanh").
	Activation string `json:"activation"`

	// --- Coevolutionary settings (Table I) ---

	// Iterations is the number of training iterations/epochs (200).
	Iterations int `json:"iterations"`
	// PopulationSize is the population size per cell (1).
	PopulationSize int `json:"population_size"`
	// TournamentSize is the selection tournament size (2).
	TournamentSize int `json:"tournament_size"`
	// GridRows and GridCols define the toroidal grid (2×2 to 4×4).
	GridRows int `json:"grid_rows"`
	GridCols int `json:"grid_cols"`
	// Neighborhood selects the cell neighbourhood pattern: "moore5" (the
	// paper's five-cell neighbourhood, default when empty), "moore9"
	// (full 3×3) or "ring4" (cardinals without the center).
	Neighborhood string `json:"neighborhood,omitempty"`
	// MixtureMutationScale is the (1+1)-ES σ for mixture weights (0.01).
	MixtureMutationScale float64 `json:"mixture_mutation_scale"`

	// --- Hyperparameter mutation (Table I) ---

	// Optimizer names the gradient optimizer ("adam").
	Optimizer string `json:"optimizer"`
	// InitialLearningRate is the starting Adam learning rate (0.0002).
	InitialLearningRate float64 `json:"initial_learning_rate"`
	// MutationRate is the σ of the Gaussian learning-rate mutation (0.0001).
	MutationRate float64 `json:"mutation_rate"`
	// MutationProbability is the chance a mutation is applied (0.5).
	MutationProbability float64 `json:"mutation_probability"`
	// LossSet is a comma-separated list of adversarial loss functions the
	// evolution may use ("bce", "minimax", "lsgan"); empty means bce
	// only. A multi-element set enables the Mustangs loss-function
	// evolution on top of Lipizzaner.
	LossSet string `json:"loss_set,omitempty"`
	// LossMutationProbability is the chance per iteration that a center's
	// loss-function gene is redrawn from LossSet (Mustangs mutation).
	LossMutationProbability float64 `json:"loss_mutation_probability"`

	// --- Training settings (Table I) ---

	// BatchSize is the mini-batch size (100).
	BatchSize int `json:"batch_size"`
	// SkipNDiscSteps trains the discriminator only every N-th step (1).
	SkipNDiscSteps int `json:"skip_n_disc_steps"`

	// --- Execution settings (Tables I–II) ---

	// TimeLimit bounds the whole run (96 h in the paper).
	TimeLimit time.Duration `json:"time_limit"`
	// TempStorageGB is the scratch space requested per run (40).
	TempStorageGB int `json:"temp_storage_gb"`
	// MemoryPerTaskMB is the memory requested per MPI task; Table II's
	// totals are NumTasks × this figure rounded to the scheduler grain.
	MemoryPerTaskMB int `json:"memory_per_task_mb"`

	// --- Reproduction-specific knobs (not in the paper) ---

	// Seed keys every random stream of the run.
	Seed uint64 `json:"seed"`
	// DatasetSize optionally truncates the 60k training split so the
	// experiment scales to small machines; 0 means the full split.
	DatasetSize int `json:"dataset_size"`
	// BatchesPerIteration bounds the mini-batches per training iteration;
	// 0 trains on the full epoch as the paper does.
	BatchesPerIteration int `json:"batches_per_iteration"`
	// GradClip bounds the gradient L2 norm (0 disables).
	GradClip float64 `json:"grad_clip"`
	// DataDieting, when set, trains each cell on a disjoint 1/N shard of
	// the training data (N = number of cells), after Toutouh et al.,
	// "Data dieting in GAN training" (the paper's reference [20]).
	DataDieting bool `json:"data_dieting"`
	// AsyncStaleness is the bounded-staleness window S of the asynchronous
	// exchange modes (core.RunAsync and the cluster async runtime): a cell
	// only blocks before an iteration that would leave it more than S
	// versions ahead of a live neighbour's last absorbed snapshot — there
	// is never a global barrier. S = 1 is lockstep, the window
	// core.RunParallel runs the same driver at. A stop request halts the
	// async drivers within S·D iterations (D the grid's influence
	// diameter). 0 selects the default window (DefaultAsyncStaleness).
	AsyncStaleness int `json:"async_staleness,omitempty"`
}

// DefaultAsyncStaleness is the staleness window used when AsyncStaleness
// is 0: wide enough that uniform pacing never blocks, tight enough that a
// partitioned neighbour halts its influence set instead of training on
// ever-staler state.
const DefaultAsyncStaleness = 4

// EffectiveAsyncStaleness resolves the configured staleness window,
// applying the default for the zero value.
func (c Config) EffectiveAsyncStaleness() int {
	if c.AsyncStaleness <= 0 {
		return DefaultAsyncStaleness
	}
	return c.AsyncStaleness
}

// Default returns the paper's Table I settings on a 2×2 grid.
func Default() Config {
	return Config{
		NetworkType:          "MLP",
		InputNeurons:         64,
		HiddenLayers:         2,
		NeuronsPerHidden:     256,
		OutputNeurons:        784,
		Activation:           "tanh",
		Iterations:           200,
		PopulationSize:       1,
		TournamentSize:       2,
		GridRows:             2,
		GridCols:             2,
		MixtureMutationScale: 0.01,
		Optimizer:            "adam",
		InitialLearningRate:  0.0002,
		MutationRate:         0.0001,
		MutationProbability:  0.5,
		BatchSize:            100,
		SkipNDiscSteps:       1,
		TimeLimit:            96 * time.Hour,
		TempStorageGB:        40,
		MemoryPerTaskMB:      1843, // ≈ Table II: 9216 MB / 5 tasks
		Seed:                 1,
	}
}

// WithGrid returns a copy of c on a rows×cols grid.
func (c Config) WithGrid(rows, cols int) Config {
	c.GridRows = rows
	c.GridCols = cols
	return c
}

// Scaled returns a copy of c shrunk for fast test/benchmark execution:
// narrow networks, few iterations, a small dataset slice.
func (c Config) Scaled(iterations, batch, datasetSize int) Config {
	c.Iterations = iterations
	c.BatchSize = batch
	c.DatasetSize = datasetSize
	c.BatchesPerIteration = 1
	c.NeuronsPerHidden = 32
	c.InputNeurons = 16
	return c
}

// NumCells returns the number of grid cells (= slave processes).
func (c Config) NumCells() int { return c.GridRows * c.GridCols }

// NumTasks returns the MPI task count: one slave per cell plus the master
// (Table II: 5, 10 and 17 tasks for the three grids).
func (c Config) NumTasks() int { return c.NumCells() + 1 }

// MemoryMB returns the total memory request of the job in MB, following
// Table II's scheduler grain: requests round up to 1 GB, and large jobs
// (over 24 GB) round up to an 8 GB grain — reproducing the paper's 9216,
// 18432 and 32768 MB for the 5-, 10- and 17-task jobs.
func (c Config) MemoryMB() int {
	raw := c.NumTasks() * c.MemoryPerTaskMB
	mb := (raw + 1023) / 1024 * 1024
	if mb > 24*1024 {
		const grain = 8 * 1024
		mb = (mb + grain - 1) / grain * grain
	}
	return mb
}

// Validate reports the first configuration error found.
// maxGridSide bounds GridRows/GridCols in Validate (paper max is 4).
const maxGridSide = 64

func (c Config) Validate() error {
	switch {
	case c.NetworkType != "MLP" && c.NetworkType != "CNN":
		return fmt.Errorf("config: unsupported network type %q (want MLP or CNN)", c.NetworkType)
	case c.NetworkType == "CNN" && c.OutputNeurons != 784:
		return fmt.Errorf("config: CNN topology requires 28×28 images (784 outputs), got %d", c.OutputNeurons)
	case c.InputNeurons <= 0:
		return fmt.Errorf("config: input neurons %d must be positive", c.InputNeurons)
	case c.HiddenLayers < 0:
		return fmt.Errorf("config: hidden layers %d must be non-negative", c.HiddenLayers)
	case c.HiddenLayers > 0 && c.NeuronsPerHidden <= 0:
		return fmt.Errorf("config: neurons per hidden layer %d must be positive", c.NeuronsPerHidden)
	case c.OutputNeurons <= 0:
		return fmt.Errorf("config: output neurons %d must be positive", c.OutputNeurons)
	case c.Activation != "tanh" && c.Activation != "relu" && c.Activation != "leaky_relu":
		return fmt.Errorf("config: unsupported activation %q", c.Activation)
	case !validLossSet(c.LossSet):
		return fmt.Errorf("config: invalid loss set %q (comma-separated bce, minimax, lsgan)", c.LossSet)
	case c.Iterations <= 0:
		return fmt.Errorf("config: iterations %d must be positive", c.Iterations)
	case c.PopulationSize != 1:
		return fmt.Errorf("config: population size per cell must be 1 (paper setting), got %d", c.PopulationSize)
	case c.TournamentSize <= 0:
		return fmt.Errorf("config: tournament size %d must be positive", c.TournamentSize)
	case c.GridRows <= 0 || c.GridCols <= 0:
		return fmt.Errorf("config: grid %d×%d must be positive", c.GridRows, c.GridCols)
	case c.GridRows > maxGridSide || c.GridCols > maxGridSide:
		// The paper's grids top out at 4×4; the cap keeps decoded configs
		// (checkpoints, wire payloads) from driving huge allocations.
		return fmt.Errorf("config: grid %d×%d exceeds the %d×%d limit", c.GridRows, c.GridCols, maxGridSide, maxGridSide)
	case c.MixtureMutationScale < 0:
		return fmt.Errorf("config: mixture mutation scale %g must be non-negative", c.MixtureMutationScale)
	case c.Neighborhood != "" && c.Neighborhood != "moore5" && c.Neighborhood != "moore9" && c.Neighborhood != "ring4":
		return fmt.Errorf("config: unknown neighbourhood %q (want moore5, moore9 or ring4)", c.Neighborhood)
	case c.Optimizer != "adam" && c.Optimizer != "sgd":
		return fmt.Errorf("config: unsupported optimizer %q", c.Optimizer)
	case c.InitialLearningRate <= 0:
		return fmt.Errorf("config: learning rate %g must be positive", c.InitialLearningRate)
	case c.MutationRate < 0:
		return fmt.Errorf("config: mutation rate %g must be non-negative", c.MutationRate)
	case c.MutationProbability < 0 || c.MutationProbability > 1:
		return fmt.Errorf("config: mutation probability %g must be in [0,1]", c.MutationProbability)
	case c.LossMutationProbability < 0 || c.LossMutationProbability > 1:
		return fmt.Errorf("config: loss mutation probability %g must be in [0,1]", c.LossMutationProbability)
	case c.BatchSize <= 0:
		return fmt.Errorf("config: batch size %d must be positive", c.BatchSize)
	case c.SkipNDiscSteps <= 0:
		return fmt.Errorf("config: skip N disc steps %d must be positive", c.SkipNDiscSteps)
	case c.DatasetSize < 0:
		return fmt.Errorf("config: dataset size %d must be non-negative", c.DatasetSize)
	case c.BatchesPerIteration < 0:
		return fmt.Errorf("config: batches per iteration %d must be non-negative", c.BatchesPerIteration)
	case c.AsyncStaleness < 0:
		return fmt.Errorf("config: async staleness %d must be non-negative", c.AsyncStaleness)
	}
	return nil
}

// validLossSet reports whether every comma-separated loss name is known.
func validLossSet(s string) bool {
	if strings.TrimSpace(s) == "" {
		return true
	}
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "bce", "heuristic", "minimax", "lsgan", "least-squares", "wgan", "wasserstein":
		default:
			return false
		}
	}
	return true
}

// Mustangs returns a copy of c with the full Mustangs loss-function
// evolution enabled: all three losses in the set, redrawn with the same
// probability as the hyperparameter mutation.
func (c Config) Mustangs() Config {
	c.LossSet = "bce,minimax,lsgan"
	c.LossMutationProbability = c.MutationProbability
	return c
}

// Marshal serialises c to JSON for broadcast to slaves.
func (c Config) Marshal() ([]byte, error) { return json.Marshal(c) }

// Unmarshal parses a Config previously produced by Marshal and validates it.
func Unmarshal(data []byte) (Config, error) {
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// GeneratorSizes returns the layer sizes of the generator MLP:
// latent → hidden^HiddenLayers → image.
func (c Config) GeneratorSizes() []int {
	sizes := []int{c.InputNeurons}
	for i := 0; i < c.HiddenLayers; i++ {
		sizes = append(sizes, c.NeuronsPerHidden)
	}
	return append(sizes, c.OutputNeurons)
}

// DiscriminatorSizes returns the layer sizes of the discriminator MLP:
// image → hidden^HiddenLayers → 1 (logit).
func (c Config) DiscriminatorSizes() []int {
	sizes := []int{c.OutputNeurons}
	for i := 0; i < c.HiddenLayers; i++ {
		sizes = append(sizes, c.NeuronsPerHidden)
	}
	return append(sizes, 1)
}

// TableI renders the configuration as (parameter, value) rows in the order
// of the paper's Table I.
func (c Config) TableI() [][2]string {
	return [][2]string{
		{"Network type", c.NetworkType},
		{"Input neurons", fmt.Sprint(c.InputNeurons)},
		{"Number of hidden layers", fmt.Sprint(c.HiddenLayers)},
		{"Neurons per hidden layer", fmt.Sprint(c.NeuronsPerHidden)},
		{"Output neurons", fmt.Sprint(c.OutputNeurons)},
		{"Activation function", c.Activation},
		{"Iterations", fmt.Sprint(c.Iterations)},
		{"Population size per cell", fmt.Sprint(c.PopulationSize)},
		{"Tournament size", fmt.Sprint(c.TournamentSize)},
		{"Grid size", fmt.Sprintf("%d×%d", c.GridRows, c.GridCols)},
		{"Mixture mutation scale", fmt.Sprint(c.MixtureMutationScale)},
		{"Optimizer", c.Optimizer},
		{"Initial learning rate", fmt.Sprint(c.InitialLearningRate)},
		{"Mutation rate", fmt.Sprint(c.MutationRate)},
		{"Mutation probability", fmt.Sprint(c.MutationProbability)},
		{"Batch size", fmt.Sprint(c.BatchSize)},
		{"Skip N disc. steps", fmt.Sprint(c.SkipNDiscSteps)},
		{"Number of tasks", fmt.Sprint(c.NumTasks())},
		{"Time limit", c.TimeLimit.String()},
		{"Temporary storage", fmt.Sprintf("%dGB", c.TempStorageGB)},
	}
}
