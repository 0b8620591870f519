package san

import (
	"strings"
	"testing"

	"vcpusim/internal/rng"
)

// buildTicker composes a two-activity model for the administrative
// enable/disable API: a timed "tick" producing into Q every tick, and an
// instantaneous "drain" moving Q into Done.
func buildTicker() (*Model, func(*Instance) (q, done int)) {
	m := NewModel("ticker")
	s := m.Sub("S")
	q := s.Place("Q", 0)
	done := s.Place("Done", 0)
	s.TimedActivity("tick", rng.Deterministic{Value: 1}).OutputArc(q, 1)
	s.InstantActivity("drain").InputArc(q, 1).OutputArc(done, 1)
	return m, func(*Instance) (int, int) { return q.Tokens(), done.Tokens() }
}

func runTicker(t *testing.T, arm func(*Instance)) (q, done int) {
	t.Helper()
	m, marking := buildTicker()
	prog, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := prog.NewInstance()
	if err != nil {
		t.Fatal(err)
	}
	if arm != nil {
		arm(inst)
	}
	inst.Reset(1)
	if _, err := inst.Run(10.5); err != nil {
		t.Fatal(err)
	}
	return marking(inst)
}

func TestSetActivityEnabledBaseline(t *testing.T) {
	q, done := runTicker(t, nil)
	if q != 0 || done != 10 {
		t.Fatalf("healthy run: Q=%d Done=%d, want 0/10", q, done)
	}
}

func TestSetActivityEnabledTimed(t *testing.T) {
	q, done := runTicker(t, func(in *Instance) {
		if err := in.SetActivityEnabled("S/tick", false); err != nil {
			t.Fatal(err)
		}
	})
	if q != 0 || done != 0 {
		t.Fatalf("disabled tick still produced: Q=%d Done=%d", q, done)
	}
}

func TestSetActivityEnabledInstantaneous(t *testing.T) {
	q, done := runTicker(t, func(in *Instance) {
		if err := in.SetActivityEnabled("S/drain", false); err != nil {
			t.Fatal(err)
		}
	})
	if q != 10 || done != 0 {
		t.Fatalf("disabled drain still drained: Q=%d Done=%d", q, done)
	}
}

// TestSetActivityEnabledPersistsAcrossReset pins the contract Arm relies
// on: one disable covers every subsequent replication until re-enabled.
func TestSetActivityEnabledPersistsAcrossReset(t *testing.T) {
	m, marking := buildTicker()
	prog, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := prog.NewInstance()
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.SetActivityEnabled("S/tick", false); err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ {
		inst.Reset(uint64(rep + 1))
		if _, err := inst.Run(10.5); err != nil {
			t.Fatal(err)
		}
		if q, done := marking(inst); q != 0 || done != 0 {
			t.Fatalf("rep %d: disable did not persist: Q=%d Done=%d", rep, q, done)
		}
	}
	if err := inst.SetActivityEnabled("S/tick", true); err != nil {
		t.Fatal(err)
	}
	inst.Reset(3)
	if _, err := inst.Run(10.5); err != nil {
		t.Fatal(err)
	}
	if q, done := marking(inst); done != 10 {
		t.Fatalf("re-enable did not restore production: Q=%d Done=%d", q, done)
	}
}

func TestSetActivityEnabledUnknownName(t *testing.T) {
	m, _ := buildTicker()
	prog, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := prog.NewInstance()
	if err != nil {
		t.Fatal(err)
	}
	err = inst.SetActivityEnabled("S/nope", false)
	if err == nil {
		t.Fatal("unknown activity accepted")
	}
	if !strings.Contains(err.Error(), "nope") {
		t.Errorf("error %q does not name the activity", err)
	}
}

// TestSetEnabledByRef checks the resolved-once surface: a ref from the
// instance's own program disables like the name does, and a ref resolved
// in another compilation of the same model is rejected by name.
func TestSetEnabledByRef(t *testing.T) {
	m, marking := buildTicker()
	prog, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	tick, err := prog.Activity("S/tick")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Activity("S/nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("Activity(unknown) = %v, want an error naming it", err)
	}
	inst, err := prog.NewInstance()
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.SetEnabled(tick, false); err != nil {
		t.Fatal(err)
	}
	inst.Reset(1)
	if _, err := inst.Run(10.5); err != nil {
		t.Fatal(err)
	}
	if q, done := marking(inst); q != 0 || done != 0 {
		t.Fatalf("disabled tick still produced: Q=%d Done=%d", q, done)
	}

	other, _ := buildTicker()
	otherProg, err := Compile(other)
	if err != nil {
		t.Fatal(err)
	}
	otherInst, err := otherProg.NewInstance()
	if err != nil {
		t.Fatal(err)
	}
	err = otherInst.SetEnabled(tick, false)
	if err == nil {
		t.Fatal("a ref from another program was accepted")
	}
	if !strings.Contains(err.Error(), "S/tick") {
		t.Errorf("error %q does not name the activity", err)
	}
	if err := otherInst.SetEnabled(ActivityRef{}, false); err == nil {
		t.Fatal("the zero ref was accepted")
	}
}
