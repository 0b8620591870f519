package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"vcpusim/internal/sim"
)

// probeDigests runs a small SAN Figure 8 grid with probes attached at
// the given pool width and returns name -> sha256 for every
// series, verifying each digest against the file on disk.
func probeDigests(t *testing.T, par int) map[string]string {
	t.Helper()
	p := Defaults()
	p.Engine = EngineSAN
	p.Horizon = 300
	p.Seed = 5
	p.Algorithms = []string{"RRS"}
	p.Sim = sim.Options{MinReps: 2, MaxReps: 2}
	p.Sim.Parallelism = par
	p.Probe = &ProbeOptions{Dir: t.TempDir(), Every: 30}
	if _, err := Figure8(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	files := p.Probe.Files()
	if len(files) != 4 { // one series per Figure 8 PCPU count
		t.Fatalf("%d probe series, want 4", len(files))
	}
	out := make(map[string]string, len(files))
	for _, sf := range files {
		data, err := os.ReadFile(sf.Path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != sf.SHA256 {
			t.Fatalf("series %s: file digest %s != manifest digest %s", sf.Name, got, sf.SHA256)
		}
		if int64(len(data)) != sf.Bytes {
			t.Fatalf("series %s: %d bytes on disk, manifest says %d", sf.Name, len(data), sf.Bytes)
		}
		out[sf.Name] = sf.SHA256
	}
	return out
}

// TestProbeSeriesBitIdentical pins the determinism contract for probe
// series: digests are identical across reruns and across grid
// parallelism settings (the probe replication is dedicated and always
// seeded from Params.Seed, so the pool's scheduling cannot perturb it).
func TestProbeSeriesBitIdentical(t *testing.T) {
	serial := probeDigests(t, 1)
	again := probeDigests(t, 1)
	parallel := probeDigests(t, 4)
	for name, want := range serial {
		if got := again[name]; got != want {
			t.Errorf("series %s differs across reruns: %s vs %s", name, got, want)
		}
		if got := parallel[name]; got != want {
			t.Errorf("series %s differs under -parallel: %s vs %s", name, got, want)
		}
	}
}
