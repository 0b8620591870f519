package obs

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strings"
)

// ManifestSchemaVersion is the current manifest schema generation,
// recorded in every manifest and checked by the validator. Generation 2
// added the optional determinism-contract stamp; generation 3 added
// probe series hashes and per-cell histogram digests. Earlier-generation
// manifests (without those fields) remain valid.
const ManifestSchemaVersion = 3

// Manifest is the provenance record of one experiment invocation: enough
// to re-run it (seed, parameters, tool build) and to check what it did
// (per-cell replication counts, engine counters, wall time, output file
// hashes). It is written as manifest.json into the run's results
// directory and validated against the embedded JSON schema.
type Manifest struct {
	Schema      int      `json:"schema"`
	Tool        string   `json:"tool"`
	GoVersion   string   `json:"go_version"`
	VCSRevision string   `json:"vcs_revision,omitempty"`
	Command     []string `json:"command,omitempty"`
	Seed        uint64   `json:"seed"`
	// Contract is the determinism contract version the run's SAN programs
	// were compiled under (san.DefaultContract); 0 on generation-1 manifests
	// written before the contract existed.
	Contract int            `json:"contract,omitempty"`
	Params   map[string]any `json:"params,omitempty"`
	Cells    []ManifestCell `json:"cells"`
	Outputs  []OutputFile   `json:"outputs,omitempty"`
	// Series records the probe time-series files the run emitted, one
	// entry per attached probe, hash-stamped so `manifest -check` can
	// gate on them the same way it gates engine counters.
	Series []SeriesFile `json:"series,omitempty"`
	WallNS int64        `json:"wall_ns"`
}

// ManifestCell is one grid cell's rollup.
type ManifestCell struct {
	Cell         string   `json:"cell"`
	Replications int      `json:"replications"`
	Converged    bool     `json:"converged"`
	ElapsedNS    int64    `json:"elapsed_ns"`
	Counters     Counters `json:"counters"`
	// Hist digests the cell's distribution rewards (wait time, queue
	// depth, stall duration) merged across replications; absent when the
	// run did not accumulate histograms.
	Hist map[string]HistSummary `json:"hist,omitempty"`
}

// OutputFile records the hash of one file the run produced.
type OutputFile struct {
	Path   string `json:"path"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// SeriesFile records one emitted probe time series: which cell it
// sampled, where it was written, how many rows it holds, and the hash
// of its bytes. Points counts sampled rows (not the header), so a probe
// that silently sampled nothing fails the manifest gate.
type SeriesFile struct {
	Name   string `json:"name"`
	Path   string `json:"path"`
	Points int    `json:"points"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// VCSRevision returns the source revision the running binary was built
// from: the vcs.revision build setting when the binary was stamped, else
// the output of `git rev-parse HEAD` (covers `go run` and `go test`,
// which disable VCS stamping), else "".
func VCSRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// HashOutput hashes one produced file into an OutputFile record.
func HashOutput(path string) (OutputFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return OutputFile{}, fmt.Errorf("obs: hash output: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return OutputFile{}, fmt.Errorf("obs: hash output %s: %w", path, err)
	}
	return OutputFile{Path: filepath.Base(path), Bytes: n, SHA256: fmt.Sprintf("%x", h.Sum(nil))}, nil
}

// WriteManifest validates the manifest against the embedded schema and
// writes it as <dir>/manifest.json (creating dir if needed). Returning
// the path keeps callers' log lines honest.
func WriteManifest(dir string, m Manifest) (string, error) {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", fmt.Errorf("obs: marshal manifest: %w", err)
	}
	if err := ValidateManifest(buf); err != nil {
		return "", fmt.Errorf("obs: refusing to write invalid manifest: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("obs: create manifest dir: %w", err)
	}
	path := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("obs: write manifest: %w", err)
	}
	return path, nil
}

// ReadManifest loads and schema-validates a manifest file.
func ReadManifest(path string) (Manifest, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, fmt.Errorf("obs: read manifest: %w", err)
	}
	if err := ValidateManifest(buf); err != nil {
		return Manifest{}, fmt.Errorf("obs: manifest %s: %w", path, err)
	}
	var m Manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return Manifest{}, fmt.Errorf("obs: decode manifest %s: %w", path, err)
	}
	return m, nil
}

// CheckCounters enforces the observability gate on a manifest: every cell
// must have recorded activity (firings > 0, events > 0) and a measured
// throughput (events_per_sec > 0), and every probe series the manifest
// claims must have sampled rows and carry a real content hash. A manifest
// that passes proves the telemetry layer was live for the run, not
// silently disabled.
func (m Manifest) CheckCounters() error {
	if len(m.Cells) == 0 {
		return fmt.Errorf("obs: manifest has no cells")
	}
	for _, c := range m.Cells {
		if c.Counters.Firings == 0 {
			return fmt.Errorf("obs: cell %q recorded zero firings", c.Cell)
		}
		if c.Counters.Events == 0 {
			return fmt.Errorf("obs: cell %q recorded zero events", c.Cell)
		}
		if c.Counters.EventsPerSec <= 0 {
			return fmt.Errorf("obs: cell %q has no events/s measurement", c.Cell)
		}
	}
	for _, s := range m.Series {
		if s.Name == "" || s.Path == "" {
			return fmt.Errorf("obs: series entry missing name or path")
		}
		if s.Points <= 0 {
			return fmt.Errorf("obs: series %q sampled no rows", s.Name)
		}
		if s.Bytes <= 0 {
			return fmt.Errorf("obs: series %q is empty", s.Name)
		}
		if len(s.SHA256) != sha256.Size*2 {
			return fmt.Errorf("obs: series %q has malformed sha256 %q", s.Name, s.SHA256)
		}
	}
	return nil
}

// VerifySeries re-reads every probe series the manifest claims and
// compares size and content hash against the recorded entry — the
// determinism gate `vcpusim manifest -check` runs. Each path is tried
// as written, then relative to baseDir (the manifest's own directory)
// so a results tree can be checked from anywhere.
func (m Manifest) VerifySeries(baseDir string) error {
	for _, s := range m.Series {
		path := s.Path
		if _, err := os.Stat(path); err != nil && baseDir != "" {
			alt := filepath.Join(baseDir, s.Path)
			if _, err := os.Stat(alt); err == nil {
				path = alt
			}
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("obs: series %q: %w", s.Name, err)
		}
		if int64(len(data)) != s.Bytes {
			return fmt.Errorf("obs: series %q: %d bytes on disk, manifest records %d", s.Name, len(data), s.Bytes)
		}
		sum := sha256.Sum256(data)
		if got := fmt.Sprintf("%x", sum); got != s.SHA256 {
			return fmt.Errorf("obs: series %q: content hash %s does not match manifest %s", s.Name, got, s.SHA256)
		}
	}
	return nil
}
