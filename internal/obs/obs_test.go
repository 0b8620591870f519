package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

type captureSink struct {
	mu     sync.Mutex
	events []Event
}

func (c *captureSink) Emit(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func TestWithCellStampsAndPreserves(t *testing.T) {
	if WithCell(nil, "x") != nil {
		t.Fatal("WithCell(nil) must stay nil")
	}
	var c captureSink
	s := WithCell(&c, "cell-a")
	s.Emit(Event{Kind: KindBatch})
	s.Emit(Event{Kind: KindStop, Cell: "already"})
	if c.events[0].Cell != "cell-a" {
		t.Errorf("unstamped event got cell %q", c.events[0].Cell)
	}
	if c.events[1].Cell != "already" {
		t.Errorf("pre-stamped cell overwritten to %q", c.events[1].Cell)
	}
}

func TestMultiDropsNils(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("empty Multi must be nil")
	}
	var a, b captureSink
	if Multi(nil, &a) != Sink(&a) {
		t.Fatal("single-sink Multi should unwrap")
	}
	m := Multi(&a, nil, &b)
	m.Emit(Event{Kind: KindCellStart, Cell: "x"})
	if len(a.events) != 1 || len(b.events) != 1 {
		t.Fatalf("fan-out failed: %d, %d", len(a.events), len(b.events))
	}
}

func TestJSONLSinkDeterministicLines(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	s.Emit(Event{Kind: KindCellEnd, Cell: "c", Reps: 3, Converged: true,
		Counters: &Counters{Events: 10, Firings: 5}})
	s.Emit(Event{Kind: KindStop, Reps: 3, Widths: map[string]float64{"b": 2, "a": 1}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	// encoding/json sorts map keys, so the stream is reproducible.
	if !strings.Contains(lines[1], `"widths":{"a":1,"b":2}`) {
		t.Errorf("widths not in sorted key order: %s", lines[1])
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != KindCellEnd || e.Counters == nil || e.Counters.Events != 10 {
		t.Errorf("round trip lost fields: %+v", e)
	}
	if strings.Contains(lines[0], `"ts"`) {
		t.Error("unstamped sink emitted a timestamp")
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, fmt.Errorf("disk full")
}

func TestJSONLSinkStickyError(t *testing.T) {
	fw := &failWriter{}
	s := NewJSONL(fw)
	s.Emit(Event{Kind: KindBatch})
	s.Emit(Event{Kind: KindBatch})
	// Writes are buffered; the failure surfaces at Close and is sticky.
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Close() = %v", err)
	}
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("second Close() = %v", err)
	}
	if fw.n != 1 {
		t.Errorf("sink kept writing after error: %d writes", fw.n)
	}
}

// countWriter records how many bytes reached the underlying writer.
type countWriter struct {
	buf bytes.Buffer
	n   int
}

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return c.buf.Write(p)
}

// TestJSONLSinkFlushOnClose pins the explicit flush contract: buffered
// lines reach the underlying writer at Close (not necessarily before),
// Close is idempotent, and events emitted after Close are dropped.
func TestJSONLSinkFlushOnClose(t *testing.T) {
	cw := &countWriter{}
	s := NewJSONL(cw)
	s.Emit(Event{Kind: KindBatch, Cell: "c", Batch: 1})
	if cw.n != 0 {
		t.Fatalf("small event bypassed the buffer: %d bytes written before Close", cw.n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(cw.buf.String(), "\n"); got != 1 {
		t.Fatalf("after Close got %d lines, want 1", got)
	}
	flushed := cw.n
	s.Emit(Event{Kind: KindBatch, Cell: "c", Batch: 2})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if cw.n != flushed {
		t.Fatalf("emit after Close reached the writer: %d bytes, want %d", cw.n, flushed)
	}
}

// TestJSONLSinkConcurrent hammers one sink from many goroutines; under
// -race this validates the locking, and afterwards every line must be a
// complete JSON object (no interleaved partial writes).
func TestJSONLSinkConcurrent(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Emit(Event{Kind: KindBatch, Cell: fmt.Sprintf("cell-%d", g), Batch: i})
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("corrupt line %d: %v", n, err)
		}
		n++
	}
	if n != 8*50 {
		t.Fatalf("got %d lines, want %d", n, 8*50)
	}
}

func TestHumanSinkRendering(t *testing.T) {
	var buf bytes.Buffer
	h := NewHuman(&buf)
	h.Emit(Event{Kind: KindBatch, Cell: "c"}) // hidden when not verbose
	h.Emit(Event{Kind: KindCellEnd, Cell: "figure 8 RRS 1PCPU", Reps: 12, Converged: true,
		ElapsedNS: 1_500_000_000, Counters: &Counters{Events: 3_000_000, EventsPerSec: 2_000_000}})
	out := buf.String()
	if strings.Count(out, "\n") != 1 {
		t.Fatalf("want exactly one line, got %q", out)
	}
	for _, want := range []string{"figure 8 RRS 1PCPU", "12 reps", "converged", "1.5s",
		"3M events", "2M events/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("line %q missing %q", out, want)
		}
	}
	buf.Reset()
	h.Verbose = true
	h.Emit(Event{Kind: KindCellStart, Cell: "c"})
	h.Emit(Event{Kind: KindStop, Cell: "c", Reps: 6, Widths: map[string]float64{"m": 0.25}})
	h.Emit(Event{Kind: KindBatch, Cell: "c", Batch: 2, Reps: 4})
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("verbose output = %q, want 3 lines", buf.String())
	}
	if !strings.Contains(lines[1], "0.25") {
		t.Errorf("verbose stop-check line missing width: %q", lines[1])
	}
	// Batch and stop-check lines carry the cell's elapsed wall time once
	// its start has been seen ("..., <duration>" suffix).
	for _, line := range lines[1:] {
		if !strings.Contains(line, ", ") || !strings.HasSuffix(line, "s") {
			t.Errorf("progress line missing elapsed duration: %q", line)
		}
	}
	buf.Reset()
	h.CR = true
	h.Emit(Event{Kind: KindCellEnd, Cell: "c"})
	if !strings.HasPrefix(buf.String(), "\r") {
		t.Error("CR mode did not prefix carriage return")
	}
}

func TestCollector(t *testing.T) {
	c := &Collector{}
	c.Emit(Event{Kind: KindBatch, Cell: "ignored"})
	c.Emit(Event{Kind: KindCellEnd, Cell: "a", Reps: 4, Converged: true, ElapsedNS: 9,
		Counters: &Counters{Events: 7, Firings: 3}})
	cells := c.Cells()
	if len(cells) != 1 {
		t.Fatalf("collected %d cells, want 1", len(cells))
	}
	got := cells[0]
	if got.Cell != "a" || got.Replications != 4 || !got.Converged || got.ElapsedNS != 9 || got.Counters.Events != 7 {
		t.Fatalf("cell = %+v", got)
	}
	// Cells returns a copy.
	cells[0].Cell = "mutated"
	if c.Cells()[0].Cell != "a" {
		t.Fatal("Cells exposed internal slice")
	}
}

func TestAccumulatorConcurrent(t *testing.T) {
	a := &Accumulator{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				a.Add(Counters{Events: 2, Firings: 1, MaxStabilizeDepth: uint64(g), WallNS: 3})
			}
		}()
	}
	wg.Wait()
	c := a.Counters()
	if c.Replications != 800 || c.Events != 1600 || c.Firings != 800 || c.WallNS != 2400 {
		t.Fatalf("rollup = %+v", c)
	}
	if c.MaxStabilizeDepth != 7 {
		t.Fatalf("max stabilize depth = %d, want 7", c.MaxStabilizeDepth)
	}
}

// TestClusterWindowCounters sums the cluster's window counters across
// replications and writes them through the manifest schema, which
// rejects a counter it does not list.
func TestClusterWindowCounters(t *testing.T) {
	var a Accumulator
	a.Add(Counters{Events: 10, Firings: 4, Windows: 40, ParallelWindows: 30})
	a.Add(Counters{Events: 10, Firings: 4, Windows: 41, ParallelWindows: 31})
	c := a.Counters()
	if c.Windows != 81 || c.ParallelWindows != 61 {
		t.Fatalf("windows %d, parallel windows %d; want 81, 61", c.Windows, c.ParallelWindows)
	}
	m := validManifest()
	c.WallNS = 5
	c.FillRate()
	m.Cells[0].Counters = c
	path, err := WriteManifest(t.TempDir(), m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if g := got.Cells[0].Counters; g.Windows != 81 || g.ParallelWindows != 61 {
		t.Fatalf("round trip lost the window counters: %+v", g)
	}
}

func TestFillRate(t *testing.T) {
	c := Counters{Events: 2_000_000, WallNS: 1_000_000_000}
	c.FillRate()
	if c.EventsPerSec != 2_000_000 {
		t.Fatalf("events/s = %g", c.EventsPerSec)
	}
	zero := Counters{}
	zero.FillRate()
	if zero.EventsPerSec != 0 {
		t.Fatal("zero counters must not produce a rate")
	}
}

func validManifest() Manifest {
	return Manifest{
		Schema:    ManifestSchemaVersion,
		Tool:      "vcpusim experiments",
		GoVersion: "go1.24.0",
		Seed:      1,
		Cells: []ManifestCell{{
			Cell: "figure 8 RRS 1PCPU", Replications: 3, Converged: true, ElapsedNS: 5,
			Counters: Counters{Events: 100, Firings: 40, EventsPerSec: 1e6},
		}},
		WallNS: 10,
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := validManifest()
	m.Params = map[string]any{"figure": "8", "quick": true}
	m.Series = []SeriesFile{{Name: "figure 8 RRS 1PCPU", Path: "probe.csv", Points: 12,
		Bytes: 340, SHA256: strings.Repeat("ab", 32)}}
	m.Cells[0].Hist = map[string]HistSummary{
		"wait": {Count: 9, Mean: 3.5, P50: 3, P95: 6, P99: 6, Max: 6},
	}
	path, err := WriteManifest(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != m.Tool || got.Seed != m.Seed || len(got.Cells) != 1 ||
		got.Cells[0].Counters.Events != 100 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if len(got.Series) != 1 || got.Series[0].Points != 12 || got.Series[0].SHA256 != m.Series[0].SHA256 {
		t.Fatalf("round trip lost series: %+v", got.Series)
	}
	if h := got.Cells[0].Hist["wait"]; h.Count != 9 || h.P95 != 6 {
		t.Fatalf("round trip lost histogram digest: %+v", got.Cells[0].Hist)
	}
	if err := got.CheckCounters(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteManifestRejectsInvalid(t *testing.T) {
	m := validManifest()
	m.Cells = nil // schema requires at least one cell
	if _, err := WriteManifest(t.TempDir(), m); err == nil {
		t.Fatal("manifest with no cells was written")
	}
}

func TestCheckCountersGate(t *testing.T) {
	m := validManifest()
	if err := m.CheckCounters(); err != nil {
		t.Fatal(err)
	}
	for _, mut := range []struct {
		name string
		mod  func(*Manifest)
	}{
		{"zero firings", func(m *Manifest) { m.Cells[0].Counters.Firings = 0 }},
		{"zero events", func(m *Manifest) { m.Cells[0].Counters.Events = 0 }},
		{"no rate", func(m *Manifest) { m.Cells[0].Counters.EventsPerSec = 0 }},
		{"no cells", func(m *Manifest) { m.Cells = nil }},
		{"series with no rows", func(m *Manifest) {
			m.Series = []SeriesFile{{Name: "p", Path: "p.csv", Points: 0, Bytes: 10,
				SHA256: strings.Repeat("ab", 32)}}
		}},
		{"series with no bytes", func(m *Manifest) {
			m.Series = []SeriesFile{{Name: "p", Path: "p.csv", Points: 3, Bytes: 0,
				SHA256: strings.Repeat("ab", 32)}}
		}},
		{"series with bad hash", func(m *Manifest) {
			m.Series = []SeriesFile{{Name: "p", Path: "p.csv", Points: 3, Bytes: 10,
				SHA256: "deadbeef"}}
		}},
		{"series with no name", func(m *Manifest) {
			m.Series = []SeriesFile{{Path: "p.csv", Points: 3, Bytes: 10,
				SHA256: strings.Repeat("ab", 32)}}
		}},
	} {
		bad := validManifest()
		mut.mod(&bad)
		if err := bad.CheckCounters(); err == nil {
			t.Errorf("%s: gate passed", mut.name)
		}
	}
}

func TestValidateManifestViolations(t *testing.T) {
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := ValidateManifest(marshal(validManifest())); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	cases := []struct {
		name string
		doc  []byte
		want string
	}{
		{"not json", []byte("{"), "not valid JSON"},
		{"wrong root type", []byte(`[]`), "got array"},
		{"missing required", []byte(`{"schema":1}`), "missing required"},
		{"bad schema version", func() []byte {
			m := validManifest()
			m.Schema = 99
			return marshal(m)
		}(), "enum"},
		{"empty cells", func() []byte {
			m := validManifest()
			m.Cells = []ManifestCell{}
			return marshal(m)
		}(), "at least"},
		{"unknown property", []byte(`{"schema":1,"tool":"t","go_version":"g","seed":1,"wall_ns":1,"surprise":true,"cells":[{"cell":"c","replications":1,"converged":true,"elapsed_ns":1,"counters":{"events":1,"firings":1}}]}`), "unexpected property"},
		{"wrong field type", []byte(`{"schema":1,"tool":42,"go_version":"g","seed":1,"wall_ns":1,"cells":[{"cell":"c","replications":1,"converged":true,"elapsed_ns":1,"counters":{"events":1,"firings":1}}]}`), "want string"},
	}
	for _, tc := range cases {
		err := ValidateManifest(tc.doc)
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
}
