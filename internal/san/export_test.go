package san

import (
	"fmt"
	"reflect"

	"vcpusim/internal/rng"
)

// TimedActivityFunc creates a timed activity whose delay is computed by fn,
// which may depend on the current marking.
func (s *Sub) TimedActivityFunc(name string, fn func(*rng.Source) float64) *Activity {
	if fn == nil {
		s.model.addErr(fmt.Errorf("san: nil delay function on activity %s", s.qualify(name)))
		fn = func(*rng.Source) float64 { return 1 }
	}
	return s.activity(name, Timed, fn)
}

// BuildTandem exposes the n-station exponential tandem benchmark model.
var BuildTandem = buildTandem

// BookkeepingDiff lists every executor-bookkeeping difference between v1
// and v2, two programs compiled from the same model under ContractV1 and
// ContractV2: the touch-mask layout, and per activity the single-arc
// enabling cache, the fused firing touch, and the rest of the plan. The
// one difference a contract may make — the delay sampler of exponential
// and normal timed activities — is checked against its expected lowering
// and then ignored.
func BookkeepingDiff(v1, v2 *Program) []string {
	var diffs []string
	check := func(what string, x, y any) {
		if !reflect.DeepEqual(x, y) {
			diffs = append(diffs, fmt.Sprintf("%s: v1 %v, v2 %v", what, x, y))
		}
	}
	check("mask111", v1.mask111, v2.mask111)
	check("mask4", v1.mask4, v2.mask4)
	check("touchMasks", v1.touchMasks, v2.touchMasks)
	check("touchOps", v1.touchOps, v2.touchOps)
	plans := func(p *Program) []*actPlan {
		return append(append([]*actPlan(nil), p.timed...), p.instants...)
	}
	p1, p2 := plans(v1), plans(v2)
	check("activity count", len(p1), len(p2))
	for i := 0; i < len(p1) && i < len(p2); i++ {
		a, b := *p1[i], *p2[i]
		name := a.act.name
		check(name+" enabP/enabN", [2]any{a.enabP, a.enabN}, [2]any{b.enabP, b.enabN})
		check(name+" fireTouch", a.fireTouch, b.fireTouch)
		if a.act.kind == Timed {
			switch a.act.dist.(type) {
			case rng.Exponential:
				check(name+" delayKind", [2]uint8{a.delayKind, b.delayKind}, [2]uint8{delayExp, delayExpZig})
				a.delayKind, b.delayKind = 0, 0
			case rng.Normal:
				check(name+" delayKind", [2]uint8{a.delayKind, b.delayKind}, [2]uint8{delayFn, delayNormZig})
				// v1 samples through the distribution, so only v2 carries
				// the parameters.
				a.delayKind, b.delayKind = 0, 0
				b.delayA, b.delayB = 0, 0
			}
		}
		if !reflect.DeepEqual(a, b) {
			diffs = append(diffs, name+": compiled plans differ")
		}
	}
	return diffs
}
