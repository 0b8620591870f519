package workload

import (
	"math"
	"testing"
	"testing/quick"

	"vcpusim/internal/rng"
)

func validSpec() Spec {
	return Spec{Load: rng.Uniform{Low: 1, High: 10}, SyncEveryN: 5}
}

func TestSpecValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		spec Spec
	}{
		{"nil load", Spec{SyncEveryN: 5}},
		{"negative sync", Spec{Load: rng.Deterministic{Value: 1}, SyncEveryN: -1}},
		{"probabilistic without N", Spec{Load: rng.Deterministic{Value: 1}, SyncProbabilistic: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.spec.Validate(); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestSpecString(t *testing.T) {
	if got := validSpec().String(); got == "" {
		t.Fatal("empty string")
	}
	noSync := Spec{Load: rng.Deterministic{Value: 2}}
	if got := noSync.String(); got == "" {
		t.Fatal("empty string for no-sync spec")
	}
}

func TestNewGeneratorErrors(t *testing.T) {
	if _, err := NewGenerator(Spec{}, rng.New(1)); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := NewGenerator(validSpec(), nil); err == nil {
		t.Fatal("nil source accepted")
	}
}

func TestDeterministicSyncEveryNth(t *testing.T) {
	g, err := NewGenerator(Spec{Load: rng.Deterministic{Value: 3}, SyncEveryN: 4}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		w := g.Next()
		wantSync := i%4 == 0
		if w.Sync != wantSync {
			t.Fatalf("workload %d: sync = %v, want %v", i, w.Sync, wantSync)
		}
	}
	if g.count != 40 {
		t.Fatalf("generated = %d, want 40", g.count)
	}
}

func TestNoSyncWhenDisabled(t *testing.T) {
	g, err := NewGenerator(Spec{Load: rng.Deterministic{Value: 3}}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if g.Next().Sync {
			t.Fatal("sync point generated with SyncEveryN=0")
		}
	}
}

func TestProbabilisticSyncRate(t *testing.T) {
	g, err := NewGenerator(Spec{
		Load:              rng.Deterministic{Value: 1},
		SyncEveryN:        5,
		SyncProbabilistic: true,
	}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	syncs := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if g.Next().Sync {
			syncs++
		}
	}
	got := float64(syncs) / n
	if math.Abs(got-0.2) > 0.01 {
		t.Fatalf("probabilistic sync rate = %g, want ~0.2", got)
	}
}

func TestLoadsAtLeastOneTick(t *testing.T) {
	// A distribution that can produce values below one must be clamped.
	g, err := NewGenerator(Spec{Load: rng.Uniform{Low: -2, High: 0.5}}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if w := g.Next(); w.Load < 1 {
			t.Fatalf("load %d below one tick", w.Load)
		}
	}
}

func TestLoadCeiling(t *testing.T) {
	// A constant 2.3 must round up to 3 ticks.
	g, err := NewGenerator(Spec{Load: rng.Deterministic{Value: 2.3}}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if w := g.Next(); w.Load != 3 {
		t.Fatalf("load = %d, want ceil(2.3) = 3", w.Load)
	}
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	mk := func() *Generator {
		g, err := NewGenerator(validSpec(), rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := mk(), mk()
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("generators diverged at workload %d", i)
		}
	}
}

func TestQuickLoadsPositiveAndSyncPeriodic(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		period := int(n%10) + 2
		g, err := NewGenerator(Spec{
			Load:       rng.Exponential{Rate: 0.3},
			SyncEveryN: period,
		}, rng.New(seed))
		if err != nil {
			return false
		}
		for i := 1; i <= 100; i++ {
			w := g.Next()
			if w.Load < 1 {
				return false
			}
			if w.Sync != (i%period == 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSyncKindValidation(t *testing.T) {
	s := Spec{Load: rng.Deterministic{Value: 1}, SyncEveryN: 2, SyncKind: SyncKind(9)}
	if err := s.Validate(); err == nil {
		t.Fatal("unknown sync kind accepted")
	}
	s.SyncKind = SyncSpinlock
	if err := s.Validate(); err != nil {
		t.Fatalf("spinlock kind rejected: %v", err)
	}
}

func TestSyncKindStrings(t *testing.T) {
	cases := map[SyncKind]string{
		SyncBarrier:  "barrier",
		SyncSpinlock: "spinlock",
		SyncKind(7):  "SyncKind(7)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}
