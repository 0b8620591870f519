package san

import (
	"fmt"
	"math"
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

// arcPred is one InputArc's enabling term: the place must hold at least n
// tokens. Lowered from the activity's arc-flagged links, it lets the
// executor evaluate enabling directly from the marking, without calling
// gate closures.
type arcPred struct {
	p *Place
	n int
}

// arcStep is one counted arc's marking effect (consume for input arcs,
// produce for output arcs), in input-function order. For activities whose
// gates consist purely of counted arcs, the step list is the whole firing.
type arcStep struct {
	p     *Place
	delta int
}

// actPlan is the compiled execution plan of one activity: its identity, the
// precomputed reward fan-out of a completion, and — when the activity's
// gates are counted arcs — closure-free enabling and firing plans. Plans
// are immutable after Compile; all mutable per-replication state lives on
// the Instance.
type actPlan struct {
	act *Activity
	// impulseIdx are the model impulse-reward indexes triggered by this
	// activity's completions.
	impulseIdx []int32
	// rateIdx are the model rate-reward indexes whose Refs document this
	// activity (completion-count rewards): dirtied on every firing.
	rateIdx []int32

	// enabArcs, when enabCompiled, is the activity's entire enabling
	// predicate as data: enabled ⇔ every arc place holds its token count.
	// Compiled only when the activity has no opaque Predicate, so the test
	// is exactly the conjunction the closures would compute.
	enabArcs     []arcPred
	enabCompiled bool
	// enabP/enabN cache the one-arc special case of enabArcs (by far the
	// most common compiled predicate): when enabP is non-nil the enabling
	// test is the single inline comparison enabP.tokens >= enabN, saving
	// refresh a call and a slice walk per reconsideration.
	enabP *Place
	enabN int

	// fireArcs, when fireCompiled, is the activity's entire firing effect
	// as data: the counted-arc marking steps in input-function order,
	// followed by the implicit empty case. Compiled only when the activity
	// has no opaque InputFunc and no case (gate-free), so applying the
	// steps is exactly what the closures would do — including the
	// negative-marking and capacity checks and the dirty-place touches.
	fireArcs     []arcStep
	fireCompiled bool
	// fireTouch, when non-nil, is the union of the dirty rows of every
	// place in fireArcs plus the plan's rateIdx bits, pre-computed over the
	// arena's full stride: a compiled firing always touches the same
	// places, so one OR of these words replaces the per-place touches and
	// the rate-dirty loop. Populated only for narrow arenas (stride ≤ 4),
	// where the unconditional OR beats the sparse op lists.
	fireTouch []uint64

	// fuseCont marks instantaneous gate-free activities whose firing can
	// only dirty the enabling of activities at or after their own position
	// in the (priority, definition) firing order. After such a firing the
	// stabilization scan continues in place — re-testing the activity
	// itself, then walking forward into the fused chain — instead of
	// restarting from priority zero, because no earlier activity can have
	// become enabled. Compiled false whenever the model has wildcard
	// instantaneous activities (their reads are undocumented, so every
	// marking change must re-test them).
	fuseCont bool

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
// A Program is compiled once per model and shared by every Instance derived
// from it; nothing on it changes during a run.
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
	// space: token places occupy [0, len(places)), extended places follow.
	extBase int

	// deps is the enabling-dependency graph the touch masks are lowered
	// from, retained for diagnostics (livelock reports), analysis, and
	// tests: per place id, the firing-table indexes of dependent timed
	// activities, instantaneous activities, and rate rewards.
	deps incidence
	// placeIDs resolves fully qualified place names (token and extended)
	// to their incidence ids.
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
// WildcardActivities and re-tested on every pass.
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
	noFuse   bool
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
// enabling-dependency graph with its per-place touch masks, closure-free
// enabling and firing plans for counted-arc gates, and fused-chain marks
// for instantaneous activities that cannot re-enable earlier ones. The
// model's marking is untouched; Instance.Reset restores it before each
// replication.
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

	// Activity lists. Timed activities keep definition order (the draw
	// order); instantaneous ones sort by (priority, definition).
	plan := make(map[*Activity]*actPlan, len(m.activities))
	var instActs []*Activity
	for _, a := range m.activities {
		switch a.kind {
		case Timed:
			ap := &actPlan{act: a}
			p.timed = append(p.timed, ap)
			plan[a] = ap
		default:
			instActs = append(instActs, a)
		}
		if n := len(a.cases); n > p.maxCases {
			p.maxCases = n
		}
	}
	sort.SliceStable(instActs, func(i, j int) bool {
		if instActs[i].priority != instActs[j].priority {
			return instActs[i].priority < instActs[j].priority
		}
		return instActs[i].defined < instActs[j].defined
	})
	for _, a := range instActs {
		ap := &actPlan{act: a}
		p.instants = append(p.instants, ap)
		plan[a] = ap
	}
	// Reward fan-out: impulse rewards by triggering activity; rate rewards
	// by documented place/activity references.
	for i, ir := range m.impulses {
		if ap := plan[ir.Activity]; ap != nil {
			ap.impulseIdx = append(ap.impulseIdx, int32(i))
		}
	}

	// Place name → incidence id (token places first, then extended).
	p.extBase = len(m.places)
	places := make(map[string]int, len(m.places)+len(m.extPlaces))
	for _, pl := range m.places {
		places[pl.name] = pl.id
	}
	for i, pl := range m.extPlaces {
		places[pl.Name()] = p.extBase + i // NewExtPlace assigns ids in creation order
	}
	p.placeIDs = places
	inc := newIncidence(len(m.places) + len(m.extPlaces))

	p.wildTimed = newBitset(len(p.timed))
	p.wildInst = newBitset(len(p.instants))

	addReaders := func(a *Activity, idx int, timed bool) {
		if len(a.preds) == 0 && !timed {
			// An instantaneous activity with no predicate is always
			// enabled: keep it in the wildcard set so stabilization
			// reaches the livelock cap exactly as a full scan would.
			p.wildInst.set(idx)
			return
		}
		if len(a.preds) == 0 {
			// Always enabled: a timed activity only needs reconsideration
			// after its own completion, which complete() marks directly.
			return
		}
		indexed := false
		for _, l := range a.links {
			if l.Kind != LinkInput {
				continue
			}
			pid, ok := places[l.Place]
			if !ok {
				continue // undocumented target: covered by wildcard below
			}
			indexed = true
			if timed {
				inc.timed[pid] = append(inc.timed[pid], int32(idx))
			} else {
				inc.inst[pid] = append(inc.inst[pid], int32(idx))
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
	p.rateWildMask = newBitset(len(m.rates))
	activityPlan := func(name string) *actPlan {
		for _, a := range m.activities {
			if a.name == name {
				return plan[a]
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

	// Closure-free plans, reconstructed from the arc-flagged links (for
	// those, the documented (place, count) IS the installed gate
	// semantics, in creation order — the closures' execution order).
	// Enabling compiles whenever every predicate is a counted input arc;
	// firing compiles whenever additionally every input function is a
	// counted arc and the only case is the implicit empty one. The gate*
	// counters distinguish arc-installed components from opaque ones. All
	// plans share two exact-capacity pools, so compiling arcs costs two
	// allocations however many activities have them.
	var predPool []arcPred
	var stepPool []arcStep
	nPred, nStep := 0, 0
	for _, a := range m.activities {
		for _, l := range a.links {
			if !l.arc {
				continue
			}
			nStep++
			if l.Kind == LinkInput {
				nPred++
			}
		}
	}
	predPool = make([]arcPred, 0, nPred)
	stepPool = make([]arcStep, 0, nStep)
	compilePlans := func(ap *actPlan) {
		a := ap.act
		predStart, stepStart := len(predPool), len(stepPool)
		for _, l := range a.links {
			if !l.arc {
				continue
			}
			pid, found := places[l.Place]
			if !found || pid >= p.extBase {
				// Arc to a place outside this model: leave the closures in
				// charge (they captured the actual place).
				predPool = predPool[:predStart]
				stepPool = stepPool[:stepStart]
				return
			}
			pl := m.places[pid]
			if l.Kind == LinkInput {
				predPool = append(predPool, arcPred{p: pl, n: l.Tokens})
				stepPool = append(stepPool, arcStep{p: pl, delta: -l.Tokens})
			} else {
				stepPool = append(stepPool, arcStep{p: pl, delta: l.Tokens})
			}
		}
		preds := predPool[predStart:len(predPool):len(predPool)]
		steps := stepPool[stepStart:len(stepPool):len(stepPool)]
		if a.gatePreds == 0 && len(preds) == len(a.preds) {
			ap.enabArcs = preds
			ap.enabCompiled = true
			if len(preds) == 1 {
				ap.enabP = preds[0].p
				ap.enabN = preds[0].n
			}
		}
		if a.gateFns == 0 && a.gateCases == 0 && len(steps) == len(a.inputFns) {
			ap.fireArcs = steps
			ap.fireCompiled = true
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

	// Fused-chain marks: an instantaneous gate-free firing whose touched
	// places have no dependent instantaneous activity earlier than itself
	// cannot enable anything the priority scan already passed, so the scan
	// may continue in place. Disabled model-wide by wildcard instantaneous
	// activities (undocumented reads must be re-tested after every change)
	// and by the WithoutFusion option.
	if !cfg.noFuse && !p.wildInstAny {
		for i, ap := range p.instants {
			if !ap.fireCompiled {
				continue
			}
			minDep := math.MaxInt
			for _, st := range ap.fireArcs {
				for _, d := range inc.inst[st.p.id] {
					if int(d) < minDep {
						minDep = int(d)
					}
				}
			}
			if minDep >= i {
				ap.fuseCont = true
			}
		}
	}

	// Lower the dependency graph into per-place touch masks: touching a
	// place ORs precompiled masks into the instance's dirty arena, which
	// lays the three dirty sets out consecutively (candTimed words, then
	// candInst, then rateDirty). Models whose sets each fit in one word
	// take a dense three-words-per-place layout; wider models get sparse
	// per-place op lists covering only the nonzero words.
	p.wT = (len(p.timed) + 63) / 64
	p.wI = (len(p.instants) + 63) / 64
	p.wR = (len(m.rates) + 63) / 64
	p.mask111 = p.wT == 1 && p.wI == 1 && p.wR == 1
	ids := len(m.places) + len(m.extPlaces)
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
			if !ap.fireCompiled {
				return
			}
			start := len(fused)
			fused = fused[:start+stride]
			ft := fused[start : start+stride : start+stride]
			for _, st := range ap.fireArcs {
				row := rows[st.p.id*stride : (st.p.id+1)*stride]
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
