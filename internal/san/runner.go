package san

// stabilizeCap bounds the number of instantaneous firings between two time
// advances; exceeding it indicates an instantaneous livelock in the model.
const stabilizeCap = 1 << 20

// stabRingLen is how many trailing instantaneous firings the instance
// records once a stabilization comes within stabRingLen of the cap, so the
// livelock error can name the activities in the cycle.
const stabRingLen = 64

// ctxCheckInterval is how many kernel events fire between context
// cancellation checks in RunIntervalContext: frequent enough that a
// cancelled experiment stops a long replication promptly, sparse enough
// that ctx.Err() stays off the per-event hot path.
const ctxCheckInterval = 4096

// Results holds the reward values measured over one replication.
type Results struct {
	// Warmup is the transient prefix excluded from the rewards.
	Warmup float64
	// Horizon is the simulated interval length.
	Horizon float64
	// Rates maps rate-reward name to its time-averaged value over the
	// interval.
	Rates map[string]float64
	// Impulses maps impulse-reward name to its accumulated total.
	Impulses map[string]float64
	// Events is the number of kernel events fired.
	Events uint64
	// Firings is the number of activity completions (timed and
	// instantaneous).
	Firings uint64
}

// Runner executes one model replication: the one-shot convenience over the
// compile-once executive (Compile + Program.NewInstance + Instance.Reset).
// A Runner is single-use — a second Run/RunInterval call returns an error
// because the underlying Instance has not been Reset. Callers running many
// replications of the same model should Compile once and Reset a pooled
// Instance per replication instead, amortizing the compilation.
type Runner struct {
	*Instance
}

// NewRunner prepares a replication of model seeded with seed. It validates
// and compiles the model and resets its marking.
func NewRunner(model *Model, seed uint64) (*Runner, error) {
	prog, err := Compile(model)
	if err != nil {
		return nil, err
	}
	in, err := prog.NewInstance()
	if err != nil {
		return nil, err
	}
	in.Reset(seed)
	return &Runner{Instance: in}, nil
}
