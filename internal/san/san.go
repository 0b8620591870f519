// Package san implements Stochastic Activity Networks (Sanders & Meyer),
// the modeling formalism the paper builds its framework on, together with a
// discrete-event simulator for them. It is the substitute for the
// closed-source Möbius tool the paper uses.
//
// The supported constructs mirror the paper's Section II.A:
//
//   - Place: holds a natural number of tokens.
//   - Extended place: holds a structured value (Möbius extended places);
//     the framework uses these for VCPU_slot and VCPU-scheduler state.
//   - Activity: timed (randomly distributed delay) or instantaneous, with
//     probabilistic cases.
//   - Input gate: enabling predicate plus an input function executed on
//     completion.
//   - Output gate: a function executed on completion that updates the
//     marking.
//   - Composition: submodels namespace their components; sharing a place
//     between submodels is the Join operation (the join places of the
//     paper's Tables 1 and 2).
//   - Reward variables: rate rewards (time-averaged functions of the
//     marking) and impulse rewards (accumulated on activity completions).
//
// Execution semantics follow the standard simulation semantics Möbius uses:
// when a timed activity becomes enabled its delay is sampled and completion
// scheduled; if a marking change disables it, the activation is aborted
// (race-enabled policy, no age memory); instantaneous activities fire in
// (priority, definition order) until the marking stabilizes, then time
// advances.
package san

import (
	"errors"
	"fmt"

	"vcpusim/internal/rng"
)

// Place is a SAN place holding a natural number of tokens.
type Place struct {
	name     string
	initial  int
	tokens   int
	capacity int // declared upper bound, 0 = undeclared
	id       int // index into the model's place list (incidence indexing)
	model    *Model
	joins    []string // submodels sharing this place
}

// Name returns the place's fully qualified name.
func (p *Place) Name() string { return p.name }

// Tokens returns the current marking of the place.
func (p *Place) Tokens() int { return p.tokens }

// SetCapacity declares an upper bound on the place's marking. The bound is
// a modeling invariant, not a clamp: it is enforced at runtime (exceeding
// it is a modeling error that fails the replication, like a negative
// marking) and exported through the structure snapshot, where static
// analysis treats the place as bounded by declaration. Declare capacities
// on places whose bound follows from gate semantics the structural
// analyzer cannot see.
func (p *Place) SetCapacity(n int) *Place {
	if n < 1 {
		p.model.addErr(fmt.Errorf("san: place %s declared non-positive capacity %d", p.name, n))
		return p
	}
	if p.initial > n {
		p.model.addErr(fmt.Errorf("san: place %s initial marking %d exceeds declared capacity %d", p.name, p.initial, n))
		return p
	}
	p.capacity = n
	return p
}

// SetTokens sets the marking. Negative markings and markings above a
// declared capacity are modeling errors and are recorded on the model;
// negative markings are clamped to zero.
func (p *Place) SetTokens(n int) {
	if n < 0 {
		p.model.addErr(fmt.Errorf("san: place %s marked negative (%d)", p.name, n))
		n = 0
	}
	if p.capacity > 0 && n > p.capacity {
		p.model.addErr(fmt.Errorf("san: place %s marked %d, above its declared capacity %d", p.name, n, p.capacity))
	}
	p.tokens = n
	if r := p.model.run; r != nil && r.tracking {
		r.touchID(p.id)
	}
}

// Add adds delta tokens (delta may be negative).
func (p *Place) Add(delta int) { p.SetTokens(p.tokens + delta) }

// reset restores the initial marking.
func (p *Place) reset() { p.tokens = p.initial }

// JoinedBy returns the submodels that share this place (the join-place
// relation of the paper's Tables 1 and 2).
func (p *Place) JoinedBy() []string {
	return append([]string(nil), p.joins...)
}

// ExtPlace is an extended place holding a structured value of type T. The
// init function produces the initial value on each replication reset.
type ExtPlace[T any] struct {
	name  string
	init  func() T
	value T
	id    int // index into the model's extended-place list
	model *Model
	joins []string
}

// Name returns the extended place's fully qualified name.
func (p *ExtPlace[T]) Name() string { return p.name }

// Get returns a pointer to the current value so gates can read and mutate
// it in place. During gate execution the place is conservatively marked
// dirty for the runner's incidence tracking; gate code that only reads the
// value should use Peek instead.
func (p *ExtPlace[T]) Get() *T {
	if r := p.model.run; r != nil && r.tracking {
		r.touchID(r.extBase + p.id)
	}
	return &p.value
}

// Peek returns a pointer to the current value for read-only access: unlike
// Get it never marks the place dirty, so callers must not mutate through
// it. Use it in enabling predicates, reward functions, and gate code that
// inspects state it does not change.
func (p *ExtPlace[T]) Peek() *T { return &p.value }

// Set replaces the current value.
func (p *ExtPlace[T]) Set(v T) {
	if r := p.model.run; r != nil && r.tracking {
		r.touchID(r.extBase + p.id)
	}
	p.value = v
}

// Reset restores the initial value. It implements the node interface used
// by the model.
func (p *ExtPlace[T]) Reset() { p.value = p.init() }

// JoinedBy returns the submodels that share this extended place.
func (p *ExtPlace[T]) JoinedBy() []string { return append([]string(nil), p.joins...) }

func (p *ExtPlace[T]) recordJoin(sub string) { p.joins = append(p.joins, sub) }

// extNode lets the model hold extended places of any type.
type extNode interface {
	Name() string
	Reset()
	JoinedBy() []string
	recordJoin(sub string)
}

// ActivityKind distinguishes timed from instantaneous activities.
type ActivityKind int

// Activity kinds.
const (
	Timed ActivityKind = iota + 1
	Instantaneous
)

// Case is one probabilistic outcome of an activity.
type Case struct {
	// Weight returns the case's relative weight under the current marking.
	// Weights are normalized at selection time.
	Weight func() float64
	// Output is the output-gate function executed when this case is chosen.
	Output func()
}

// LinkKind classifies a documented connection between an activity and a
// place, used only for structure export (DOT) and structural tests.
type LinkKind int

// Link kinds.
const (
	LinkInput LinkKind = iota + 1
	LinkOutput
)

// Link is a documented activity↔place connection. Tokens is the number of
// tokens the connection requires (input) or produces (output) when the link
// was created by InputArc/OutputArc; 0 means the activity only reads or
// writes the place through gate code (for example a zero-test predicate),
// without a fixed token count.
type Link struct {
	Kind   LinkKind
	Place  string
	Tokens int
	// arc marks links created by InputArc/OutputArc: for these the
	// documented (place, count) IS the installed gate semantics, so Compile
	// may reconstruct the predicate and marking effect from the link alone.
	// LinkN records the same shape as documentation only; the analyzer
	// trusts it, the executor does not.
	arc bool
}

// Activity is a SAN activity.
type Activity struct {
	name     string
	kind     ActivityKind
	priority int // instantaneous ordering: lower fires first
	delay    func(*rng.Source) float64
	dist     rng.Distribution // set when built from a Distribution; nil for TimedActivityFunc
	preds    []func() bool
	inputFns []func()
	cases    []Case
	links    []Link
	model    *Model
	defined  int // definition order, tie-break within priority
	// gatePreds / gateFns / gateCases count the opaque gate components
	// added directly (Predicate, InputFunc, AddCase), as opposed to the
	// ones the counted-arc conveniences create. Structural analysis uses
	// them to tell activities whose semantics ARE their documented arcs
	// from activities with behavior the documentation only approximates;
	// the compiled executor uses them to decide when the arc records above
	// fully describe the activity.
	gatePreds, gateFns, gateCases int
}

// Name returns the activity's fully qualified name.
func (a *Activity) Name() string { return a.name }

// Predicate adds an enabling condition; the activity is enabled only when
// every added predicate holds (input-gate predicates).
func (a *Activity) Predicate(fn func() bool) *Activity {
	a.gatePreds++
	return a.addPredicate(fn)
}

func (a *Activity) addPredicate(fn func() bool) *Activity {
	if fn == nil {
		a.model.addErr(fmt.Errorf("san: nil predicate on activity %s", a.name))
		return a
	}
	a.preds = append(a.preds, fn)
	return a
}

func (a *Activity) addInputFunc(fn func()) *Activity {
	if fn == nil {
		a.model.addErr(fmt.Errorf("san: nil input function on activity %s", a.name))
		return a
	}
	a.inputFns = append(a.inputFns, fn)
	return a
}

// AddCase adds a probabilistic case. Pass weight nil for weight 1.
func (a *Activity) AddCase(weight func() float64, output func()) *Activity {
	if output == nil {
		a.model.addErr(fmt.Errorf("san: nil output gate on activity %s", a.name))
		return a
	}
	if weight == nil {
		weight = func() float64 { return 1 }
	}
	a.gateCases++
	a.cases = append(a.cases, Case{Weight: weight, Output: output})
	return a
}

// Priority sets the instantaneous firing priority (lower fires first).
// It has no effect on timed activities' ordering in time.
func (a *Activity) Priority(p int) *Activity {
	a.priority = p
	return a
}

// Link documents a connection to a place for structure export and static
// analysis. It has no semantic effect; gates capture places directly. A
// zero-count link means the gate reads (input) or writes (output) the place
// by an amount the documentation does not fix; use LinkN when the gate's
// token effect is a known constant.
func (a *Activity) Link(kind LinkKind, placeName string) *Activity {
	a.links = append(a.links, Link{Kind: kind, Place: placeName})
	return a
}

// LinkN documents a connection with a fixed token count for gate code whose
// effect on the place is a known constant: an output LinkN(n) asserts every
// completion adds exactly n tokens, an input LinkN(n) that it consumes
// exactly n. Like Link it has no semantic effect, but the structural
// analyzer admits the declared count into its incidence matrix, and the
// dynamic conformance check (sanalyze) verifies gate behavior against it.
func (a *Activity) LinkN(kind LinkKind, placeName string, n int) *Activity {
	if n < 1 {
		a.model.addErr(fmt.Errorf("san: non-positive link count %d on activity %s", n, a.name))
		return a
	}
	return a.linkTokens(kind, placeName, n)
}

// linkTokens documents a connection with a fixed token count (LinkN).
func (a *Activity) linkTokens(kind LinkKind, placeName string, n int) *Activity {
	a.links = append(a.links, Link{Kind: kind, Place: placeName, Tokens: n})
	return a
}

// arcLink records an InputArc/OutputArc connection: the same counted link,
// flagged as carrying the gate semantics itself so Compile can lower the
// arc into the closure-free enabling and firing plans.
func (a *Activity) arcLink(kind LinkKind, placeName string, n int) *Activity {
	a.links = append(a.links, Link{Kind: kind, Place: placeName, Tokens: n, arc: true})
	return a
}

// Links returns the documented connections.
func (a *Activity) Links() []Link { return append([]Link(nil), a.links...) }

// enabled evaluates the conjunction of all predicates.
func (a *Activity) enabled() bool {
	for _, p := range a.preds {
		if !p() {
			return false
		}
	}
	return true
}

// InputArc is a convenience: requires n tokens in p and consumes them on
// completion (classic Petri-net input arc expressed as an input gate). The
// predicate and consumption it installs are fully described by the counted
// link, so arcs do not count toward the activity's opaque-gate tally.
func (a *Activity) InputArc(p *Place, n int) *Activity {
	a.addPredicate(func() bool { return p.Tokens() >= n })
	a.addInputFunc(func() { p.Add(-n) })
	return a.arcLink(LinkInput, p.Name(), n)
}

// OutputArc is a convenience: produces n tokens in p on completion. It must
// be combined with AddCase or used on activities with a default case; the
// production happens before case outputs.
func (a *Activity) OutputArc(p *Place, n int) *Activity {
	a.addInputFunc(func() { p.Add(n) })
	return a.arcLink(LinkOutput, p.Name(), n)
}

// RateReward is a reward variable accumulated as the time integral of a
// marking function (availability/utilization metrics in the paper are all
// rate rewards).
type RateReward struct {
	Name string
	// Fn evaluates the instantaneous reward under the current marking.
	Fn func() float64
	// Refs documents the places/activities the reward function reads, for
	// structure export and static analysis (the function itself is opaque).
	Refs []string
}

// ImpulseReward accumulates a value each time a given activity completes.
type ImpulseReward struct {
	Name     string
	Activity *Activity
	// Fn evaluates the impulse under the marking after completion. Nil
	// means 1 (a completion counter).
	Fn func() float64
	// Refs documents the places the impulse function reads (the triggering
	// activity is referenced directly).
	Refs []string
}

// PlaceWeight is one term of a declared conservation law.
type PlaceWeight struct {
	Place  string
	Weight int
}

// Conservation is a declared token-conservation law: the builder asserts
// that the weighted sum of the named places' markings never changes. The
// declaration has no runtime effect; the structural analyzer verifies it
// against the documented incidence (every activity's counted effect must be
// orthogonal to the weight vector, and no support place may have writes of
// undocumented size) and reports any violation as an error.
type Conservation struct {
	Name    string
	Weights []PlaceWeight
}

// Model is a (possibly composed) SAN model: places, activities, and reward
// variables. Build one with NewModel, add components through submodels, and
// check Err before running.
type Model struct {
	name          string
	places        []*Place
	extPlaces     []extNode
	activities    []*Activity
	rates         []RateReward
	impulses      []ImpulseReward
	conservations []Conservation
	byName        map[string]bool
	errs          []error
	// notify, when set, is called on every recorded modeling error so a
	// running Runner can fail fast instead of finishing with clamped state.
	notify func(error)
	// run, when set by an Instance at Reset, is notified of every place
	// written (token places) or accessed mutably (extended places, via
	// Get/Set) so it can maintain its dirty-place incidence sets. A direct
	// field rather than a hook function: the only-reacts-during-gate-
	// execution check then inlines into the marking writes.
	run *Instance
}

// NewModel creates an empty model.
func NewModel(name string) *Model {
	return &Model{name: name, byName: make(map[string]bool)}
}

// Name returns the model name.
func (m *Model) Name() string { return m.name }

// Err returns the accumulated build or runtime modeling errors, if any.
func (m *Model) Err() error { return errors.Join(m.errs...) }

func (m *Model) addErr(err error) {
	m.errs = append(m.errs, err)
	if m.notify != nil {
		m.notify(err)
	}
}

// ReportError records a runtime modeling error raised by gate code (for
// example, a plugged-in scheduling function violating an invariant). The
// running Runner surfaces it when the replication ends.
func (m *Model) ReportError(err error) {
	if err != nil {
		m.addErr(err)
	}
}

func (m *Model) claimName(name string) {
	if m.byName[name] {
		m.addErr(fmt.Errorf("san: duplicate component name %q", name))
	}
	m.byName[name] = true
}

// Places returns all places in definition order.
func (m *Model) Places() []*Place { return append([]*Place(nil), m.places...) }

// Activities returns all activities in definition order.
func (m *Model) Activities() []*Activity { return append([]*Activity(nil), m.activities...) }

// ExtPlaceNames returns the names of all extended places.
func (m *Model) ExtPlaceNames() []string {
	names := make([]string, len(m.extPlaces))
	for i, p := range m.extPlaces {
		names[i] = p.Name()
	}
	return names
}

// ExtPlaceJoins returns, for every extended place, the sub-models sharing
// it (the extended-place rows of the paper's join-place tables).
func (m *Model) ExtPlaceJoins() map[string][]string {
	joins := make(map[string][]string, len(m.extPlaces))
	for _, p := range m.extPlaces {
		joins[p.Name()] = p.JoinedBy()
	}
	return joins
}

// AddRateReward registers a rate reward variable. The optional refs
// document which places/activities the reward function reads; they have no
// semantic effect but let static analysis cross-check the reward against
// the model structure.
func (m *Model) AddRateReward(name string, fn func() float64, refs ...string) {
	if fn == nil {
		m.addErr(fmt.Errorf("san: nil rate reward %q", name))
		return
	}
	m.rates = append(m.rates, RateReward{Name: name, Fn: fn, Refs: refs})
}

// AddImpulseReward registers an impulse reward variable on an activity. The
// optional refs document places the impulse function reads.
func (m *Model) AddImpulseReward(name string, a *Activity, fn func() float64, refs ...string) {
	if a == nil {
		m.addErr(fmt.Errorf("san: nil activity for impulse reward %q", name))
		return
	}
	if fn == nil {
		fn = func() float64 { return 1 }
	}
	m.impulses = append(m.impulses, ImpulseReward{Name: name, Activity: a, Fn: fn, Refs: refs})
}

// RateRewardNames returns the registered rate reward names in order.
func (m *Model) RateRewardNames() []string {
	names := make([]string, len(m.rates))
	for i, r := range m.rates {
		names[i] = r.Name
	}
	return names
}

// DeclareConservation records a token-conservation law for the structural
// analyzer to verify: the weighted sum of the named places' markings must
// be invariant under every documented activity effect. Weights must be
// positive and places must exist by the time the model is analyzed.
func (m *Model) DeclareConservation(name string, weights ...PlaceWeight) {
	if name == "" || len(weights) == 0 {
		m.addErr(fmt.Errorf("san: conservation declaration needs a name and at least one place"))
		return
	}
	for _, w := range weights {
		if w.Weight <= 0 {
			m.addErr(fmt.Errorf("san: conservation %q has non-positive weight %d on place %q", name, w.Weight, w.Place))
			return
		}
	}
	m.conservations = append(m.conservations, Conservation{Name: name, Weights: append([]PlaceWeight(nil), weights...)})
}

// Sub creates a namespaced submodel. Component names are qualified as
// "subname/component". Submodels composed into the same Model and sharing
// places realize the Join operation.
func (m *Model) Sub(name string) *Sub {
	return &Sub{model: m, name: name}
}

// Replicate is the composed-model Replicate operation (paper §II.A): it
// instantiates n copies of a submodel, calling build once per replica with
// its index and a fresh namespaced Sub ("name[i]"). Places the build
// function shares across calls (created outside and passed in via closure)
// become the replicate's common places; everything created on the provided
// Sub is per-replica state.
func (m *Model) Replicate(name string, n int, build func(i int, s *Sub)) {
	if n < 1 {
		m.addErr(fmt.Errorf("san: replicate %q needs at least one copy, got %d", name, n))
		return
	}
	if build == nil {
		m.addErr(fmt.Errorf("san: nil build function for replicate %q", name))
		return
	}
	for i := 0; i < n; i++ {
		build(i, m.Sub(fmt.Sprintf("%s[%d]", name, i)))
	}
}

// Sub is a namespaced view of a model used to build one submodel of a
// composed model.
type Sub struct {
	model *Model
	name  string
}

// Model returns the underlying composed model.
func (s *Sub) Model() *Model { return s.model }

// qualify builds the fully qualified component name.
func (s *Sub) qualify(name string) string { return s.name + "/" + name }

// Place creates a place named name with the given initial marking.
func (s *Sub) Place(name string, initial int) *Place {
	q := s.qualify(name)
	s.model.claimName(q)
	p := &Place{name: q, initial: initial, tokens: initial, id: len(s.model.places), model: s.model, joins: []string{s.name}}
	s.model.places = append(s.model.places, p)
	return p
}

// Share records that an existing place is joined into this submodel (the
// Join operation on a common place).
func (s *Sub) Share(p *Place) *Place {
	p.joins = append(p.joins, s.name)
	return p
}

// ShareExt records that an existing extended place is joined into this
// submodel.
func ShareExt[T any](s *Sub, p *ExtPlace[T]) *ExtPlace[T] {
	p.recordJoin(s.name)
	return p
}

// NewExtPlace creates an extended place in submodel s whose initial value
// is produced by init on every reset.
func NewExtPlace[T any](s *Sub, name string, init func() T) *ExtPlace[T] {
	q := s.qualify(name)
	s.model.claimName(q)
	if init == nil {
		init = func() T { var zero T; return zero }
	}
	p := &ExtPlace[T]{name: q, init: init, value: init(), id: len(s.model.extPlaces), model: s.model, joins: []string{s.name}}
	s.model.extPlaces = append(s.model.extPlaces, p)
	return p
}

// TimedActivity creates a timed activity whose delay is sampled from dist.
func (s *Sub) TimedActivity(name string, dist rng.Distribution) *Activity {
	if dist == nil {
		s.model.addErr(fmt.Errorf("san: nil delay distribution on activity %s", s.qualify(name)))
		dist = rng.Deterministic{Value: 1}
	}
	a := s.activity(name, Timed, func(src *rng.Source) float64 { return dist.Sample(src) })
	a.dist = dist
	return a
}

// InstantActivity creates an instantaneous activity.
func (s *Sub) InstantActivity(name string) *Activity {
	return s.activity(name, Instantaneous, nil)
}

func (s *Sub) activity(name string, kind ActivityKind, delay func(*rng.Source) float64) *Activity {
	q := s.qualify(name)
	s.model.claimName(q)
	a := &Activity{
		name:    q,
		kind:    kind,
		delay:   delay,
		model:   s.model,
		defined: len(s.model.activities),
	}
	s.model.activities = append(s.model.activities, a)
	return a
}

// reset restores the initial marking and clears completion counters.
func (m *Model) reset() {
	for _, p := range m.places {
		p.reset()
	}
	for _, p := range m.extPlaces {
		p.Reset()
	}
}

// Validate checks the model for build errors and basic well-formedness
// (every activity has at least one case or is given an implicit empty one).
func (m *Model) Validate() error {
	for _, a := range m.activities {
		if len(a.cases) == 0 {
			// Implicit single case with no output gate.
			a.cases = []Case{{Weight: func() float64 { return 1 }, Output: func() {}}}
		}
	}
	return m.Err()
}
