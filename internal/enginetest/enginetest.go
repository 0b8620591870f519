// Package enginetest holds the engine-differential check: the SAN engine
// (internal/core) and the fast engine (internal/fastsim) run the same
// configuration, seed and horizon, and the tests of both engines, of the
// schedulers and of the root package compare their metrics through one
// Diff.
package enginetest

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// maxAvgULPs bounds the gap between the engines on a fleet-average key
// (one ending in "/avg"), in units in the last place. The fast engine
// sums per-entity values in ID order, the SAN engine integrates one rate
// reward per average, so the last bits may differ. The bound is the
// largest gap the engine-differential tests measure: 170 ulps, on
// TestEngineCrossValidation's blocked/avg (Credit, config 0, seed 2).
// The randomized parity tests stayed at or below 68 over 600 runs of 40
// configurations each. Every other key is a per-entity metric and must
// be bit-identical.
const maxAvgULPs = 170

// Diff compares the two engines' metrics for one test. When the test
// ends it logs the largest fleet-average gap it saw.
type Diff struct {
	t     testing.TB
	gap   uint64
	where string
}

// New returns a Diff reporting on t.
func New(t testing.TB) *Diff {
	d := &Diff{t: t}
	t.Cleanup(func() { t.Logf("largest */avg gap between the engines: %d ulps%s", d.gap, d.where) })
	return d
}

// Compare checks one pair of results: the same keys, every per-entity
// key bit for bit, and every */avg key within maxAvgULPs. It reports each
// mismatch on the test, prefixed by label, and returns whether the pair
// agreed.
func (d *Diff) Compare(label string, fast, san map[string]float64) bool {
	d.t.Helper()
	ok := true
	keys := make([]string, 0, len(fast))
	for k := range fast {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		f := fast[k]
		s, found := san[k]
		if !found {
			d.t.Errorf("%s: metric %s missing from the SAN engine", label, k)
			ok = false
			continue
		}
		if !strings.HasSuffix(k, "/avg") {
			if math.Float64bits(f) != math.Float64bits(s) {
				d.t.Errorf("%s: %s fast=%x san=%x (Δ=%g)", label, k, math.Float64bits(f), math.Float64bits(s), f-s)
				ok = false
			}
			continue
		}
		g := ulps(f, s)
		if g > d.gap {
			d.gap, d.where = g, fmt.Sprintf(" (%s, %s)", label, k)
		}
		if g > maxAvgULPs {
			d.t.Errorf("%s: %s fast=%g san=%g differ by %d ulps, above %d", label, k, f, s, g, maxAvgULPs)
			ok = false
		}
	}
	if len(san) != len(fast) {
		d.t.Errorf("%s: metric sets differ: fast %d, SAN %d", label, len(fast), len(san))
		ok = false
	}
	return ok
}

// ulps is the distance between a and b in representable float64 values;
// +0 and -0 are equal, and a NaN is infinitely far from everything.
func ulps(a, b float64) uint64 {
	if a == b {
		return 0
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.MaxUint64
	}
	ia, ib := ordered(a), ordered(b)
	if ia < ib {
		ia, ib = ib, ia
	}
	return uint64(ia) - uint64(ib)
}

// ordered maps a float64 onto an int64 that sorts in the same order, with
// consecutive floats on consecutive integers.
func ordered(x float64) int64 {
	b := int64(math.Float64bits(x))
	if b < 0 {
		b = math.MinInt64 - b
	}
	return b
}
