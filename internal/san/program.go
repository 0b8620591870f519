package san

import (
	"fmt"
	"sort"
	"sync"

	"vcpusim/internal/rng"
)

// Compiled delay kinds: the common stationary distributions are compiled
// into direct arithmetic so the refresh path samples without a closure call
// or interface dispatch. The formulas are copied verbatim from internal/rng
// (one Float64 draw for exponential/uniform, none for deterministic), so
// the sampled values — and the RNG stream position — are bit-identical to
// calling Distribution.Sample.
const (
	delayFn      uint8 = iota // marking-dependent or uncommon: call act.delay
	delayDet                  // Deterministic{Value: A}
	delayExp                  // Exponential{Rate: A}
	delayUniform              // Uniform{Low: A, High: B}
	// Contract-v2 kinds: ziggurat samplers drawing a different — faster,
	// but identically distributed — variate stream than the v1 formulas.
	delayExpZig  // Exponential{Rate: A} via rng.ExpZig
	delayNormZig // Normal{Mu: A, Sigma: B} via rng.NormZig
)

// actPlan is the compiled execution plan of one activity: its identity, the
// precomputed reward fan-out of a completion, and how its counted arcs
// enable and fire it. Plans are immutable after Compile; all mutable
// per-replication state lives on the Instance.
type actPlan struct {
	act *Activity
	// impulseIdx are the model impulse-reward indexes triggered by this
	// activity's completions.
	impulseIdx []int32
	// rateIdx are the model rate-reward indexes whose Refs document this
	// activity (completion-count rewards): dirtied on every firing.
	rateIdx []int32

	// enabP/enabN, when enabP is non-nil, are the activity's one input arc
	// and its token count, its whole enabling condition when it has no
	// opaque predicate (by far the most common one): the enabling test is
	// the single inline comparison enabP.tokens >= enabN, saving refresh a
	// call and a slice walk per reconsideration. Other activities evaluate
	// Activity.enabled.
	enabP *Place
	enabN int

	// foreign reports an arc to a place outside the compiled model. fire
	// applies every arc of such an activity through Place.Add, which
	// records errors on and touches for the place's own model; for all
	// other activities it applies the arcs itself, with the same negative
	// and capacity checks and this model's dirty touches. The cases, unless
	// caseFree, then run as closures with tracking on; a caseFree activity
	// has only the implicit empty case, so the arcs are its entire firing.
	foreign  bool
	caseFree bool
	// case1, when the activity has exactly one case, is that case: fire
	// runs its output gate without weighing it.
	case1 *Case
	// fireTouch, when non-nil, is the union of the dirty rows of every
	// arc's place plus the plan's rateIdx bits, pre-computed over the
	// arena's full stride: a compiled firing always touches the same
	// places, so one OR of these words replaces the per-place touches and
	// the rate-dirty loop. Populated only for narrow arenas (stride ≤ 4),
	// where the unconditional OR beats the sparse op lists.
	fireTouch []uint64

	// Compiled delay sampler (timed activities): delayKind selects direct
	// arithmetic with parameters delayA/delayB, or the activity's delay
	// function for marking-dependent and uncommon distributions.
	delayKind      uint8
	delayA, delayB float64
}

// touchOp ORs one precompiled incidence mask into one word of an instance's
// dirty arena (candTimed words first, then candInst, then rateDirty). Wide
// models store a sparse op list per place — typically one or two nonzero
// words — instead of a full three-set stride row.
type touchOp struct {
	word int32
	mask uint64
}

// Program is the compiled, immutable executive of one Model: activity
// tables in firing order, the reward fan-out, and the enabling-dependency
// graph — for each place, exactly the activities whose enabling predicate
// (input arcs and gate reads) and the rate rewards whose value can change
// when that place's marking changes — lowered into per-place touch masks.
// An activity whose predicates are all input arcs reads only its arc
// places; a reward that refs a projection depends on the projection, which
// a touch of its place marks for a key check. A Program is compiled once
// per model and shared by every Instance derived from it; nothing on it
// changes during a run.
//
// Because the model's marking lives on the Model itself (gate closures
// capture places directly), instances of the same Program share that
// marking: at most one Instance of a Program may be running at any time.
// For parallel replications, build one system + Program per worker and
// reuse each worker's Instance serially via Reset.
type Program struct {
	model *Model

	// timed holds timed activities in definition order (the RNG draw order
	// among newly-enabled activities); instants holds instantaneous
	// activities in (priority, definition) firing order.
	timed    []*actPlan
	instants []*actPlan

	// extBase offsets extended-place ids into the shared incidence id
	// space: token places occupy [0, len(places)), extended places follow,
	// then projections (deps and Dependents only; nothing touches them).
	extBase int

	// projs are the model's projections in declaration order. Projection j
	// owns bit nRates+j of an instance's rate-dirty set: a touch of its
	// place sets the bit, and the observation that finds it set
	// re-evaluates the key and, when the key changed, dirties the rate
	// rewards that ref the projection, projRewards[j*wR:(j+1)*wR].
	projs       []projection
	projRewards []uint64
	nRates      int

	// deps is the enabling-dependency graph the touch masks are lowered
	// from, retained for diagnostics (livelock reports), analysis, and
	// tests: per place id, the firing-table indexes of dependent timed
	// activities, instantaneous activities, and rate rewards.
	deps incidence
	// placeIDs resolves fully qualified place and projection names to
	// their incidence ids.
	placeIDs map[string]int

	// wT/wI/wR are the word counts of the three dirty bitsets laid out
	// consecutively in an instance's dirty arena.
	wT, wI, wR int

	// touchMasks is the dense mask layout used when the arena stride is
	// small: stride consecutive words per place id, ORed onto the arena's
	// first stride words. mask111 is the three-words case (every dirty set
	// fits one word); mask4 covers strides of four (one of the sets spills
	// into a second word — e.g. 65–128 timed activities). Other models use
	// touchOps: a sparse per-place list of (word, mask) ops into the arena.
	touchMasks []uint64
	touchOps   [][]touchOp
	mask111    bool
	mask4      bool

	// wildTimed / wildInst are the activities with undocumented reads,
	// folded into an instance's candidate sets on every pass; rateWildMask
	// holds the rate rewards without usable Refs, re-evaluated at every
	// observation. All three are read-only after Compile. The *Any flags
	// let the hot paths skip the fold when the sets are empty.
	wildTimed, wildInst       bitset
	wildTimedAny, wildInstAny bool
	rateWildMask              bitset

	// maxCases sizes the per-instance case-weight scratch buffer.
	maxCases int

	// actIndex resolves activity names to their position in the firing
	// tables, for Instance.SetActivityEnabled. Built lazily on first
	// lookup so programs that never disable anything pay nothing.
	actOnce  sync.Once
	actIndex map[string]actRef

	// contract is the determinism contract version the program was
	// compiled under (ContractV1 or ContractV2); it selects the delay
	// sampling formulas above and nothing else.
	contract int
}

// actRef locates an activity in a program's firing tables.
type actRef struct {
	timed bool
	idx   int
}

// activityRef resolves an activity name to its firing-table position,
// building the index on first use.
func (p *Program) activityRef(name string) (actRef, bool) {
	p.actOnce.Do(func() {
		p.actIndex = make(map[string]actRef, len(p.timed)+len(p.instants))
		for i, ap := range p.timed {
			p.actIndex[ap.act.name] = actRef{timed: true, idx: i}
		}
		for i, ap := range p.instants {
			p.actIndex[ap.act.name] = actRef{idx: i}
		}
	})
	ref, ok := p.actIndex[name]
	return ref, ok
}

// Model returns the model the program was compiled from.
func (p *Program) Model() *Model { return p.model }

// Dependents returns, for the named place (token or extended), the fully
// qualified names of the timed activities, instantaneous activities, and
// rate rewards the compiled enabling-dependency graph re-tests when the
// place's marking changes. ok is false when the place is unknown.
// Activities with undocumented reads are not listed per place; they are in
// WildcardActivities and re-tested on every pass. An activity whose
// predicates are all input arcs is listed under its arc places only. A
// reward that refs a projection is listed under the projection's name, not
// its place: it is re-evaluated when a touch of the place changed the key.
func (p *Program) Dependents(place string) (timed, inst, rates []string, ok bool) {
	id, ok := p.placeIDs[place]
	if !ok {
		return nil, nil, nil, false
	}
	for _, i := range p.deps.timed[id] {
		timed = append(timed, p.timed[i].act.name)
	}
	for _, i := range p.deps.inst[id] {
		inst = append(inst, p.instants[i].act.name)
	}
	for _, i := range p.deps.rates[id] {
		rates = append(rates, p.model.rates[i].Name)
	}
	return timed, inst, rates, true
}

// WildcardActivities returns the names of activities whose enabling reads
// are not fully documented by input links: they fall outside the
// dependency graph and are reconsidered on every pass.
func (p *Program) WildcardActivities() []string {
	var names []string
	for i := p.wildTimed.next(0); i >= 0; i = p.wildTimed.next(i + 1) {
		names = append(names, p.timed[i].act.name)
	}
	for i := p.wildInst.next(0); i >= 0; i = p.wildInst.next(i + 1) {
		names = append(names, p.instants[i].act.name)
	}
	return names
}

// QuietPlaces returns the names of the places, token places first, that no
// activity, reward or projection depends on: writes to them skip the touch.
func (p *Program) QuietPlaces() []string {
	var names []string
	for _, pl := range p.model.places {
		if pl.quiet {
			names = append(names, pl.name)
		}
	}
	for _, pl := range p.model.extPlaces {
		if pl.isQuiet() {
			names = append(names, pl.Name())
		}
	}
	return names
}

// Determinism contract versions. The contract names the exact byte-level
// reproduction guarantee a compiled program honors, and selects only the
// variate stream: which sampling formulas turn the RNG's draws into
// exponential and normal delays. Every contract runs the same executor
// bookkeeping on the same binary-heap kernel. Golden fixtures are recorded
// per contract and never mixed.
const (
	// ContractV1 samples by inversion (rng.ExpInv) and Box-Muller. Every
	// fixture recorded before the contract existed is a v1 fixture.
	ContractV1 = 1
	// ContractV2 samples exponential and normal delays with the ziggurat
	// (rng.ExpZig, rng.NormZig): a different, faster variate stream from
	// the same distributions. v2 is self-reproducible bit-for-bit across
	// runs, parallelism levels, and pooled vs fresh instances, but its
	// trajectories diverge from v1 wherever ziggurat draws engage.
	ContractV2 = 2
	// DefaultContract is what Compile uses when no WithContract option is
	// given: v1, so all existing callers and fixtures are untouched.
	DefaultContract = ContractV1
)

// compileConfig holds Compile's option state.
type compileConfig struct {
	contract int
}

// CompileOption customizes Compile.
type CompileOption func(*compileConfig)

// WithContract selects the determinism contract version the program is
// compiled under (ContractV1 or ContractV2); 0 means DefaultContract.
// Compile fails on any other version, so an unknown contract can never
// silently fall back to a different trajectory.
func WithContract(version int) CompileOption {
	return func(c *compileConfig) { c.contract = version }
}

// Compile validates model and compiles its immutable execution plan: the
// activity firing orders, the per-activity reward fan-out, the
// enabling-dependency graph with its per-place touch masks, the arc plans
// of the enabling test and the firing, and the quiet places no
// activity or reward depends on. The model's marking is untouched;
// Instance.Reset restores it before each replication.
func Compile(model *Model, opts ...CompileOption) (*Program, error) {
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("san: model %q invalid: %w", model.Name(), err)
	}
	var cfg compileConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.contract == 0 {
		cfg.contract = DefaultContract
	}
	if cfg.contract != ContractV1 && cfg.contract != ContractV2 {
		return nil, fmt.Errorf("san: unknown determinism contract version %d (have v%d and v%d)",
			cfg.contract, ContractV1, ContractV2)
	}
	m := model
	p := &Program{model: m, contract: cfg.contract}

	// Activity tables. Timed activities keep definition order (the draw
	// order); instantaneous ones sort by (priority, definition). The plans
	// share one array in table order.
	n := len(m.activities)
	order := make([]*Activity, 0, n)
	for _, a := range m.activities {
		if a.kind == Timed {
			order = append(order, a)
		}
		if c := len(a.cases); c > p.maxCases {
			p.maxCases = c
		}
	}
	nT := len(order)
	for _, a := range m.activities {
		if a.kind != Timed {
			order = append(order, a)
		}
	}
	inst := order[nT:]
	sort.SliceStable(inst, func(i, j int) bool {
		if inst[i].priority != inst[j].priority {
			return inst[i].priority < inst[j].priority
		}
		return inst[i].defined < inst[j].defined
	})
	pool, tables, plan := make([]actPlan, n), make([]*actPlan, n), make([]*actPlan, n)
	for k, a := range order {
		pool[k].act = a
		tables[k], plan[a.defined] = &pool[k], &pool[k] // plan: by definition index
	}
	p.timed, p.instants = tables[:nT:nT], tables[nT:]
	// Reward fan-out: impulse rewards by triggering activity; rate rewards
	// by documented place/activity references.
	for i, ir := range m.impulses {
		if a := ir.Activity; a.model == m {
			plan[a.defined].impulseIdx = append(plan[a.defined].impulseIdx, int32(i))
		}
	}

	// Place name → incidence id (token places first, then extended, then
	// projections).
	p.extBase = len(m.places)
	ids := len(m.places) + len(m.extPlaces)
	places := make(map[string]int, ids+len(m.projections))
	for _, pl := range m.places {
		places[pl.name] = int(pl.id)
	}
	for i, pl := range m.extPlaces {
		places[pl.Name()] = p.extBase + i // NewExtPlace assigns ids in creation order
	}
	for j, pr := range m.projections {
		places[pr.name] = ids + j
	}
	p.projs = m.projections
	p.placeIDs = places
	p.nRates = len(m.rates)
	inc := newIncidence(ids + len(m.projections))

	p.wildTimed = newBitset(len(p.timed))
	p.wildInst = newBitset(len(p.instants))

	addReaders := func(a *Activity, idx int, timed bool) {
		arcOnly := len(a.preds) == 0
		if arcOnly && a.inputArcs() == 0 {
			// Always enabled. An instantaneous one stays in the wildcard
			// set so stabilization reaches the livelock cap exactly as a
			// full scan would; a timed one only needs reconsideration
			// after its own completion, which complete() marks directly.
			if !timed {
				p.wildInst.set(idx)
			}
			return
		}
		indexed := false
		index := func(pid int) {
			indexed = true
			if timed {
				inc.timed[pid] = append(inc.timed[pid], int32(idx))
			} else {
				inc.inst[pid] = append(inc.inst[pid], int32(idx))
			}
		}
		if arcOnly {
			// Input arcs alone read exactly their places.
			for _, st := range a.arcs {
				if st.delta < 0 && st.p.model == m {
					index(int(st.p.id))
				}
			}
		} else {
			// Opaque predicates read what the input links document.
			for _, l := range a.links {
				if pid, ok := places[l.Place]; ok && l.Kind == LinkInput {
					index(pid)
				}
			}
		}
		if !indexed {
			// Predicates with no documented input arcs: reconsider on
			// every pass (pre-index behavior for this activity).
			if timed {
				p.wildTimed.set(idx)
			} else {
				p.wildInst.set(idx)
			}
		}
	}
	for i, ap := range p.timed {
		addReaders(ap.act, i, true)
	}
	for i, ap := range p.instants {
		addReaders(ap.act, i, false)
	}
	p.wildTimedAny = p.wildTimed.any()
	p.wildInstAny = p.wildInst.any()

	// Rate rewards: Refs → watched places or completion-counted activities.
	// Activity refs are rare (most refs are places, resolved by the map),
	// so they take a linear scan instead of a second name map.
	p.rateWildMask = newBitset(len(m.rates) + len(m.projections))
	activityPlan := func(name string) *actPlan {
		for _, a := range m.activities {
			if a.name == name {
				return plan[a.defined]
			}
		}
		return nil
	}
	for i, rr := range m.rates {
		if len(rr.Refs) == 0 {
			p.rateWildMask.set(i)
			continue
		}
		for _, ref := range rr.Refs {
			if pid, ok := places[ref]; ok {
				inc.rates[pid] = append(inc.rates[pid], int32(i))
				continue
			}
			if ap := activityPlan(ref); ap != nil {
				ap.rateIdx = append(ap.rateIdx, int32(i))
				continue
			}
			p.rateWildMask.set(i)
		}
	}
	p.deps = inc

	// Arc plans: the activity's arcs are its input gate as data, in
	// creation order. A lone input arc with no opaque predicate is the
	// whole enabling test.
	compilePlans := func(ap *actPlan) {
		a := ap.act
		if len(a.cases) == 1 {
			ap.case1 = &a.cases[0]
		}
		ap.caseFree = a.gateCases == 0
		inputs := 0
		for _, st := range a.arcs {
			ap.foreign = ap.foreign || st.p.model != m
			if st.delta < 0 {
				inputs++
				ap.enabP, ap.enabN = st.p, -st.delta
			}
		}
		if inputs != 1 || len(a.preds) != 0 {
			ap.enabP, ap.enabN = nil, 0
		}
	}
	for _, ap := range p.timed {
		compilePlans(ap)
		ap.delayKind = delayFn
		switch d := ap.act.dist.(type) {
		case rng.Deterministic:
			ap.delayKind, ap.delayA = delayDet, d.Value
		case rng.Exponential:
			if cfg.contract == ContractV2 {
				ap.delayKind, ap.delayA = delayExpZig, d.Rate
			} else {
				ap.delayKind, ap.delayA = delayExp, d.Rate
			}
		case rng.Uniform:
			ap.delayKind, ap.delayA, ap.delayB = delayUniform, d.Low, d.High
		case rng.Normal:
			// Only lowered under v2: the v1 Box-Muller path stays on the
			// delayFn fallback, exactly as it compiled before the
			// contract existed.
			if cfg.contract == ContractV2 {
				ap.delayKind, ap.delayA, ap.delayB = delayNormZig, d.Mu, d.Sigma
			}
		}
	}
	for _, ap := range p.instants {
		compilePlans(ap)
	}

	// Lower the dependency graph into per-place touch masks: touching a
	// place ORs precompiled masks into the instance's dirty arena, which
	// lays the three dirty sets out consecutively (candTimed words, then
	// candInst, then rateDirty, whose bits past the rate rewards mark
	// projections). Models whose sets each fit in one word take a dense
	// three-words-per-place layout; wider models get sparse per-place op
	// lists covering only the nonzero words.
	p.wT = (len(p.timed) + 63) / 64
	p.wI = (len(p.instants) + 63) / 64
	p.wR = (len(m.rates) + len(m.projections) + 63) / 64
	p.mask111 = p.wT == 1 && p.wI == 1 && p.wR == 1
	stride := p.wT + p.wI + p.wR
	p.mask4 = stride == 4
	// The fused firing rows (below) live in the same backing array as the
	// per-place rows, so compiling them costs no allocation.
	fusedCap := 0
	if stride <= 4 {
		fusedCap = (len(p.timed) + len(p.instants)) * stride
	}
	rows := make([]uint64, ids*stride, ids*stride+fusedCap)
	for id := 0; id < ids; id++ {
		row := rows[id*stride : (id+1)*stride]
		mt := bitset(row[:p.wT])
		mi := bitset(row[p.wT : p.wT+p.wI])
		mr := bitset(row[p.wT+p.wI:])
		for _, i := range inc.timed[id] {
			mt.set(int(i))
		}
		for _, i := range inc.inst[id] {
			mi.set(int(i))
		}
		for _, i := range inc.rates[id] {
			mr.set(int(i))
		}
	}
	p.projRewards = make([]uint64, len(m.projections)*p.wR)
	for j, pr := range m.projections {
		id := p.extBase + pr.ext
		bitset(rows[id*stride+p.wT+p.wI : (id+1)*stride]).set(p.nRates + j)
		rewards := bitset(p.projRewards[j*p.wR : (j+1)*p.wR])
		for _, i := range inc.rates[ids+j] {
			rewards.set(int(i))
		}
	}
	// Quiet places: a place whose row is all zero has no dependent
	// activity, reward or projection, so touching it would OR nothing; its
	// writes skip the touch.
	for id := 0; id < ids; id++ {
		quiet := !bitset(rows[id*stride : (id+1)*stride]).any()
		if id < p.extBase {
			m.places[id].quiet = quiet
		} else {
			m.extPlaces[id-p.extBase].setQuiet(quiet)
		}
	}
	if p.mask111 || p.mask4 {
		p.touchMasks = rows
	} else {
		p.touchOps = make([][]touchOp, ids)
		var ops []touchOp // one backing array for all places
		for id := 0; id < ids; id++ {
			row := rows[id*stride : (id+1)*stride]
			start := len(ops)
			for w, mask := range row {
				if mask != 0 {
					ops = append(ops, touchOp{word: int32(w), mask: mask})
				}
			}
			p.touchOps[id] = ops[start:len(ops):len(ops)]
		}
	}

	// Fused firing touches (narrow arenas): pre-union each compiled firing
	// plan's dirty rows and rate-dirty bits so fire marks everything with
	// one OR. The union is exactly the set the per-place touches and the
	// rateIdx loop would mark, so the executor's dirty state — and with it
	// the trajectory — is unchanged.
	if stride <= 4 {
		// The plans' fused rows fill the spare capacity reserved on rows.
		fused := rows[len(rows):len(rows):cap(rows)]
		fuseTouch := func(ap *actPlan) {
			if ap.foreign {
				return
			}
			start := len(fused)
			fused = fused[:start+stride]
			ft := fused[start : start+stride : start+stride]
			for _, st := range ap.act.arcs {
				id := int(st.p.id)
				row := rows[id*stride : (id+1)*stride]
				for w, mask := range row {
					ft[w] |= mask
				}
			}
			rateBase := p.wT + p.wI
			for _, i := range ap.rateIdx {
				ft[rateBase+(int(i)>>6)] |= 1 << (uint(i) & 63)
			}
			ap.fireTouch = ft
		}
		for _, ap := range p.timed {
			fuseTouch(ap)
		}
		for _, ap := range p.instants {
			fuseTouch(ap)
		}
	}
	return p, nil
}
