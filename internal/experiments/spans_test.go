package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"vcpusim/internal/obs"
	"vcpusim/internal/sim"
)

var updateSpans = flag.Bool("update", false, "rewrite the golden span-stream fixture")

// volatileFields zeroes the wall-clock-dependent values in a span line,
// leaving everything the seed determines.
var volatileFields = regexp.MustCompile(`"(elapsed_ns|wall_ns|events_per_sec)":[-+0-9.eE]+`)

func scrubSpans(b []byte) []byte {
	return volatileFields.ReplaceAll(b, []byte(`"$1":0`))
}

// TestSpanStreamGolden locks the telemetry span stream of a tiny
// deterministic two-cell SAN run against a checked-in fixture: kinds,
// order, cell stamps, batch/stop payloads, CI widths, and engine-counter
// rollups must all reproduce bit-for-bit (wall-clock fields scrubbed).
// The stream must not depend on the pool's width: at Parallelism 4 the
// cell's replications run concurrently, yet they fold — and emit one
// sim.batch span each — in replication order. Regenerate with
// `go test ./internal/experiments -run SpanStreamGolden -update` and
// review the diff.
func TestSpanStreamGolden(t *testing.T) {
	golden := filepath.Join("testdata", "spans_golden.jsonl")
	for _, par := range []int{1, 4} {
		var buf bytes.Buffer
		sink := obs.NewJSONL(&buf)
		p := Params{
			Engine:  EngineSAN,
			Horizon: 300,
			Seed:    5,
			Sim:     sim.Options{MinReps: 2, MaxReps: 2, RelWidth: 10, Parallelism: par},
			Sink:    sink,
		}
		p = p.withDefaults()
		cfg := p.fig8Config(1)
		for _, gc := range []struct{ name, algo string }{
			{"golden RRS 1PCPU", "RRS"},
			{"golden SCS 1PCPU", "SCS"},
		} {
			if _, err := p.runCells(context.Background(), []cell{{name: gc.name, cfg: cfg, algo: gc.algo}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		got := scrubSpans(buf.Bytes())

		if *updateSpans && par == 1 {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("read golden (regenerate with -update): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("parallelism %d: span stream drifted from golden fixture.\ngot:\n%s\nwant:\n%s", par, got, want)
		}
	}
}
