package san

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
)

var updateGoldenV2 = flag.Bool("update", false, "rewrite the contract-v2 golden fixture from the current engine")

// goldenV2Cases are the (model, seed) cells pinned by the contract-v2
// golden: exponential-clock models where the ziggurat sampler engages, so
// the fixture freezes the v2 trajectory specifically (a v1 run of the same cells produces different
// numbers — see TestGoldenContractV2DivergesFromV1).
func goldenV2Cases() []struct {
	name    string
	build   func() *Model
	seed    uint64
	horizon float64
} {
	mm1 := func() *Model { m, _ := buildMM1(0.7, 1.0); return m }
	return []struct {
		name    string
		build   func() *Model
		seed    uint64
		horizon float64
	}{
		{"tandem16/seed1", func() *Model { return buildTandem(16) }, 1, 2000},
		{"tandem16/seed7", func() *Model { return buildTandem(16) }, 7, 2000},
		{"mm1/seed1", mm1, 1, 20000},
	}
}

// goldenV2Path is the contract-v2 fixture: reward values as exact
// hexadecimal floats plus the engine's event/firing counts, so the
// comparison pins the whole trajectory, not just its averages.
func goldenV2Path() string {
	return filepath.Join("testdata", "golden_v2.json")
}

// runGoldenV2Case executes one cell under the given contract and renders
// the results as name -> exact string.
func runGoldenV2Case(t *testing.T, build func() *Model, horizon float64, seed uint64, contract int) map[string]string {
	t.Helper()
	r, err := NewRunner(build(), seed, WithContract(contract))
	if err != nil {
		t.Fatalf("golden v2 runner: %v", err)
	}
	res, err := r.Run(horizon)
	if err != nil {
		t.Fatalf("golden v2 replication: %v", err)
	}
	out := map[string]string{
		"_events":  strconv.FormatUint(res.Events, 10),
		"_firings": strconv.FormatUint(res.Firings, 10),
	}
	names := make([]string, 0, len(res.Rates))
	for name := range res.Rates {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out[name] = strconv.FormatFloat(res.Rates[name], 'x', -1, 64)
	}
	return out
}

// TestGoldenContractV2Determinism pins the contract-v2 engine bit for
// bit: ziggurat draw order and the kernel's pop order must reproduce
// this fixture exactly on every platform and parallelism level. Run with
// -update to re-record — only legitimate when a change intentionally
// declares a NEW contract version; silently re-recording v2 breaks the
// versioning promise.
func TestGoldenContractV2Determinism(t *testing.T) {
	if *updateGoldenV2 {
		golden := make(map[string]map[string]string)
		for _, gc := range goldenV2Cases() {
			golden[gc.name] = runGoldenV2Case(t, gc.build, gc.horizon, gc.seed, ContractV2)
		}
		buf, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenV2Path(), append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenV2Path())
		return
	}

	buf, err := os.ReadFile(goldenV2Path())
	if err != nil {
		t.Fatalf("missing contract-v2 golden fixture (run with -update to record): %v", err)
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(buf, &golden); err != nil {
		t.Fatalf("corrupt contract-v2 golden fixture: %v", err)
	}
	for _, gc := range goldenV2Cases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			want, ok := golden[gc.name]
			if !ok {
				t.Fatalf("fixture has no entry %q (re-record with -update)", gc.name)
			}
			got := runGoldenV2Case(t, gc.build, gc.horizon, gc.seed, ContractV2)
			if len(got) != len(want) {
				t.Errorf("value count %d, want %d", len(got), len(want))
			}
			for name, w := range want {
				g, ok := got[name]
				if !ok {
					t.Errorf("value %s missing from run", name)
					continue
				}
				if g != w {
					t.Errorf("value %s = %s, want %s: contract-v2 trajectory diverged", name, g, w)
				}
			}
		})
	}
}

// TestGoldenContractV2SelfReproducible guards the harness: two fresh v2
// runs of each cell within one build must agree exactly, independent of
// the fixture.
func TestGoldenContractV2SelfReproducible(t *testing.T) {
	for _, gc := range goldenV2Cases() {
		a := runGoldenV2Case(t, gc.build, gc.horizon, gc.seed, ContractV2)
		b := runGoldenV2Case(t, gc.build, gc.horizon, gc.seed, ContractV2)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("%s: same-seed v2 replications diverged within one build:\n%v\n%v", gc.name, a, b)
		}
	}
}

// TestGoldenContractV2DivergesFromV1 documents that v2 is a different
// determinism contract, not a faster implementation of v1: on an
// exponential-clock model the ziggurat sampler consumes the source
// stream differently, so the trajectories must differ. (Models with only
// deterministic or uniform clocks coincide under both contracts — the
// contract selects only the variate stream.)
func TestGoldenContractV2DivergesFromV1(t *testing.T) {
	gc := goldenV2Cases()[0]
	v1 := runGoldenV2Case(t, gc.build, gc.horizon, gc.seed, ContractV1)
	v2 := runGoldenV2Case(t, gc.build, gc.horizon, gc.seed, ContractV2)
	if fmt.Sprint(v1) == fmt.Sprint(v2) {
		t.Fatalf("%s: contract v1 and v2 produced identical trajectories; ziggurat path not engaged?", gc.name)
	}
}

// TestGoldenContractV2PooledEquivalence extends the compile-once
// contract to v2: a pooled Instance reset across seeds must reproduce a
// fresh v2 build bit for bit, exactly as v1 does.
func TestGoldenContractV2PooledEquivalence(t *testing.T) {
	prog, err := Compile(buildTandem(6), WithContract(ContractV2))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := prog.NewInstance()
	if err != nil {
		t.Fatal(err)
	}
	const warmup, horizon = 100, 1500
	seeds := []uint64{1, 7, 42, 7, 1} // repeats: a reset must not remember
	for _, seed := range seeds {
		fresh, err := NewRunner(buildTandem(6), seed, WithContract(ContractV2))
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.RunInterval(warmup, horizon)
		if err != nil {
			t.Fatal(err)
		}
		inst.Reset(seed)
		got, err := inst.RunInterval(warmup, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if got.Events != want.Events || got.Firings != want.Firings {
			t.Fatalf("seed %d: pooled (%d events, %d firings) != fresh (%d events, %d firings)",
				seed, got.Events, got.Firings, want.Events, want.Firings)
		}
		for name, w := range want.Rates {
			if g := got.Rates[name]; g != w {
				t.Errorf("seed %d: rate %s pooled %x, fresh %x", seed, name, g, w)
			}
		}
	}
}
