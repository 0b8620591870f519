package san

import (
	"fmt"
	"math"
	"testing"
)

// TestObserveRatesZeroSkipExact pins rate-reward integration bit for bit
// on the inputs a skip of zero-valued rewards would have to get right, so
// such a skip (exact, since x + (±0)·dt == x for every integral the
// engine holds) cannot land unless it changes no bit of any result. The
// rewards cycle through +0, -0, positive and negative values, and some
// pass through NaN or +Inf once; Exec calls at an unchanged time make dt
// zero between observations. The reference integrates every reward at
// every observation with the executor's own expression. One model fits
// the one-word dirty set, the other (70 rewards) spills into a second
// word.
func TestObserveRatesZeroSkipExact(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cycle := []float64{0, negZero, 2.5, negZero, -1.25, 0, 0.75, 0}
	// times are the Exec instants: repeats give dt == 0.
	times := []float64{0, 0, 1, 1, 1, 2.5, 2.5, 4, 5, 5, 7.25, 7.25, 8, 9.5, 9.5, 9.5}
	const horizon = 12

	for _, n := range []int{12, 70} {
		t.Run(fmt.Sprintf("%d rewards", n), func(t *testing.T) {
			m := NewModel("zeroskip")
			s := m.Sub("s")
			// fast changes at every Exec, slow at every third, so rewards
			// on slow hold their value across observations with dt > 0.
			fast, slow := s.Place("fast", 0), s.Place("slow", 0)
			fns := make([]func() float64, n)
			for i := range fns {
				i := i
				p := fast
				if i%2 == 1 {
					p = slow
				}
				switch i % 5 {
				case 3: // NaN once, zero of either sign otherwise
					fns[i] = func() float64 {
						if p.Tokens() == 2+i%3 {
							return math.NaN()
						}
						return cycle[(p.Tokens()+i)%2]
					}
				case 4: // +Inf once
					fns[i] = func() float64 {
						if p.Tokens() == 4+i%3 {
							return math.Inf(1)
						}
						return cycle[(p.Tokens()+i)%len(cycle)]
					}
				default:
					fns[i] = func() float64 { return cycle[(p.Tokens()+i)%len(cycle)] }
				}
				m.AddRateReward(fmt.Sprintf("r%d", i), fns[i], p.Name())
			}

			r, err := NewRunner(m, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.BeginRun(0, horizon); err != nil {
				t.Fatal(err)
			}
			// The reference starts from the t=0 observation BeginRun made.
			integ, val := make([]float64, n), make([]float64, n)
			for i, fn := range fns {
				val[i] = fn()
			}
			last := 0.0
			for j, at := range times {
				j := j
				if err := r.Exec(at, func() {
					fast.Add(1)
					if j%3 == 0 {
						slow.Add(1)
					}
				}); err != nil {
					t.Fatal(err)
				}
				dt := at - last
				last = at
				for i, fn := range fns {
					integ[i] += val[i] * dt
					val[i] = fn()
				}
			}
			res, err := r.EndRun()
			if err != nil {
				t.Fatal(err)
			}
			special := 0
			for i := range fns {
				want := (integ[i] + val[i]*(horizon-last)) / horizon
				got := res.Rates[fmt.Sprintf("r%d", i)]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("r%d = %x, want %x", i, math.Float64bits(got), math.Float64bits(want))
				}
				if math.IsNaN(want) || math.IsInf(want, 0) || want == 0 {
					special++
				}
			}
			if special == 0 || special == n {
				t.Fatalf("%d of %d results are zero, NaN or Inf: the model no longer mixes them", special, n)
			}
		})
	}
}
