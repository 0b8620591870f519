package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// JSONLSink writes every event as one JSON object per line through an
// internal buffer. It is safe for concurrent use: each Emit marshals
// outside the lock and performs a single buffered write under it, so
// lines from concurrent cells never interleave. Marshal or write errors
// are sticky and reported by Close; Emit itself never fails (telemetry
// must not abort an experiment).
//
// Because writes are buffered, callers that hand the sink a file must
// Close it before closing the file: Close flushes the buffer and
// returns the first error the sink saw, making flush-on-close the
// explicit end of the stream rather than an accident of buffer size.
//
// The stream carries no wall-clock timestamps, so the span stream of a
// seeded run is byte-deterministic up to the elapsed_ns / wall_ns /
// events_per_sec fields.
type JSONLSink struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	err    error
	closed bool
}

// NewJSONL returns a JSONL sink writing to w.
func NewJSONL(w io.Writer) *JSONLSink { return &JSONLSink{bw: bufio.NewWriterSize(w, 1<<15)} }

// Emit writes one event line.
func (s *JSONLSink) Emit(e Event) {
	buf, err := json.Marshal(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.err == nil {
			s.err = fmt.Errorf("obs: marshal event: %w", err)
		}
		return
	}
	if s.err != nil || s.closed {
		return
	}
	if _, err := s.bw.Write(append(buf, '\n')); err != nil {
		s.err = fmt.Errorf("obs: write event: %w", err)
	}
}

// Close flushes buffered lines to the underlying writer and returns the
// first marshal, write, or flush error. Events emitted after Close are
// dropped. Close does not close the underlying writer — the caller that
// opened the file closes it, after Close has flushed into it.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		if err := s.bw.Flush(); err != nil && s.err == nil {
			s.err = fmt.Errorf("obs: flush events: %w", err)
		}
	}
	return s.err
}

// HumanSink renders progress lines for a terminal: one line per completed
// grid cell (cell.end), optionally every span event with Verbose. All
// output goes through a mutex-guarded, carriage-return-safe line writer —
// each line is emitted as a single Write beginning at column zero — so
// concurrent grid workers cannot interleave partial lines, the defect the
// old per-cell Progress callback plumbing had.
type HumanSink struct {
	mu sync.Mutex
	w  io.Writer
	// Verbose renders sim.batch / sim.stop spans too.
	Verbose bool
	// CR, when set, prefixes every line with a carriage return so a
	// partially written spinner or status line on the same terminal is
	// overwritten instead of appended to.
	CR bool
	// starts records each in-flight cell's start on the process clock so
	// batch and stop-check lines can carry the cell's elapsed wall time —
	// the events themselves only gain a duration at cell.end.
	starts map[string]time.Duration
}

// NewHuman returns a human-readable progress sink writing to w.
func NewHuman(w io.Writer) *HumanSink { return &HumanSink{w: w} }

// Emit renders one event, if its kind is shown at the current verbosity.
// Every progress line for a cell carries the cell's wall-clock duration —
// the completed duration on cell.end, the running elapsed time on batch
// and stop-check lines — and cell.end lines always carry the engine
// counter rollup, so the terminal stream and the span stream agree on
// what a cell cost.
func (h *HumanSink) Emit(e Event) {
	var line string
	switch e.Kind {
	case KindCellStart:
		h.markStart(e.Cell)
		if !h.Verbose {
			return
		}
		line = fmt.Sprintf("  %s %s", e.Kind, e.Cell)
	case KindCellEnd:
		h.forgetStart(e.Cell)
		status := "converged"
		if !e.Converged {
			status = "budget exhausted"
		}
		line = fmt.Sprintf("cell %-45s %3d reps, %s, %s", e.Cell, e.Reps, status,
			time.Duration(e.ElapsedNS).Round(time.Millisecond))
		if c := e.Counters; c != nil {
			line += fmt.Sprintf(", %.3gM events, %.3gM firings",
				float64(c.Events)/1e6, float64(c.Firings)/1e6)
			if c.EventsPerSec > 0 {
				line += fmt.Sprintf(", %.3gM events/s", c.EventsPerSec/1e6)
			}
		}
	case KindBatch:
		if !h.Verbose {
			return
		}
		line = fmt.Sprintf("  %s batch %d: %d reps done%s", e.Cell, e.Batch, e.Reps,
			h.sinceStart(e.Cell))
	case KindStop:
		if !h.Verbose {
			return
		}
		worst := 0.0
		for _, w := range e.Widths {
			if w > worst {
				worst = w
			}
		}
		line = fmt.Sprintf("  %s stop-check at %d reps: converged=%v, worst rel half-width %.3g%s",
			e.Cell, e.Reps, e.Converged, worst, h.sinceStart(e.Cell))
	default:
		if !h.Verbose {
			return
		}
		line = fmt.Sprintf("  %s %s", e.Kind, e.Cell)
	}
	h.writeLine(line)
}

// markStart stamps a cell's start on the process clock.
func (h *HumanSink) markStart(cell string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.starts == nil {
		h.starts = make(map[string]time.Duration)
	}
	h.starts[cell] = Clock()
}

// forgetStart drops a completed cell's start stamp.
func (h *HumanSink) forgetStart(cell string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.starts, cell)
}

// sinceStart renders ", <elapsed>" for a cell with a recorded start,
// or "" when the cell's start was never seen.
func (h *HumanSink) sinceStart(cell string) string {
	h.mu.Lock()
	start, ok := h.starts[cell]
	h.mu.Unlock()
	if !ok {
		return ""
	}
	return fmt.Sprintf(", %s", (Clock() - start).Round(time.Millisecond))
}

// writeLine writes one full line atomically.
func (h *HumanSink) writeLine(line string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.CR {
		line = "\r" + line
	}
	io.WriteString(h.w, line+"\n")
}

// Collector accumulates cell.end events into manifest cell entries, in
// completion order. It is safe for concurrent use.
type Collector struct {
	mu    sync.Mutex
	cells []ManifestCell
}

// Emit records cell.end events; other kinds are ignored.
func (c *Collector) Emit(e Event) {
	if e.Kind != KindCellEnd {
		return
	}
	cell := ManifestCell{
		Cell:         e.Cell,
		Replications: e.Reps,
		Converged:    e.Converged,
		ElapsedNS:    e.ElapsedNS,
		Hist:         e.Hist,
	}
	if e.Counters != nil {
		cell.Counters = *e.Counters
	}
	c.mu.Lock()
	c.cells = append(c.cells, cell)
	c.mu.Unlock()
}

// Cells returns the collected manifest cells in completion order.
func (c *Collector) Cells() []ManifestCell {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]ManifestCell(nil), c.cells...)
}
